"""Compact matrix group numerics.

Supported groups are U(1), SO(2), SO(3) and SU(2) in their defining
representations.  The module provides batched exp/log between a normed Lie
algebra and the group, the distance to the identity, the U(1)/SO(2)
trapezoid Haar rule, and the constants (c, c', c'', d, d', c_l, c_d) of the
quadratic contraction certificate of the averaging iteration: sampled,
except the closed-form c_l and c_d.

Conventions fixed here and relied on everywhere else:
  * algebra coordinates are real vectors in the bases of the README's
    numerical conventions; exp and log are batched closed forms.  exp is
    exp(i theta) (u1), the rotation by theta (so2), Rodrigues on the unit
    axis (so3) and the unit quaternion (su2), valid at any angle; log is
    the atan2 rotation angle on the principal branch (-pi, pi] times the
    unit axis of the skew part;
  * the norm on the algebra is ``scale * raw_norm`` and the group distance
    is ``|log(g^-1 h)|`` in that norm (left translation of the norm);
  * exp of the exact zero vector returns the exact identity matrix;
  * SO(2) and SO(3) matrices are float64, U(1) and SU(2) matrices complex.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlgebraVector, NormalizationFailure
from .sums import weighted_sum

TAU_ALG = 1e-9      # injectivity verification slack

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


def _row_norm(x):
    """np.linalg.norm(x, axis=-1) to the bit for rows of under 8 entries,
    which numpy sums in order: here column by column, each step one loop
    over all the rows."""
    sq = np.square(np.asarray(x, dtype=float))
    total = sq[..., 0]
    for j in range(1, sq.shape[-1]):
        total = total + sq[..., j]
    return np.sqrt(total)


def _compose(a, b, adjoint=False):
    """Stacked products a[n] b[n], or a[n] b[n]^H with ``adjoint``, by real
    arithmetic on (part, m, m, n) columns: re = ar br - ai bi and
    im = ar bi + ai br (numpy's complex multiply fuses them), summed over j
    as (j0 + j1) + j2, or (j0 + j2) + j1 for the adjoint, then added to 0.0.
    On C-ordered stacks these are the bits of np.einsum("nij,njk->nik") and
    "nij,nkj->nik" with b.conj(), whose order follows the strides; here any
    layout gives the bits of its C-ordered copy."""
    n, m = len(a), a.shape[-1]
    dtype = complex if np.iscomplexobj(a) or np.iscomplexobj(b) else float
    parts = 2 if dtype is complex else 1

    def columns(x, axes):
        x = np.ascontiguousarray(x, dtype=dtype).view(float)
        return np.ascontiguousarray(x.reshape(n, m, m, parts).transpose(axes))

    A = columns(a, (3, 1, 2, 0))
    B = columns(b, (3, 2, 1, 0) if adjoint else (3, 1, 2, 0))
    q = A[:, None, :, :, None] * B[None, :, None]       # (pa, pb, i, j, k, n)
    if parts == 2:      # with adjoint, b^H's imaginary part is -bi, exactly
        re, im = (np.add, np.subtract) if adjoint else (np.subtract, np.add)
        re(q[0, 0], q[1, 1], out=q[0, 0])
        im(q[1, 0], q[0, 1], out=q[0, 1])
    order = (0, 2, 1) if adjoint and m == 3 else range(m)
    acc = q[0, :, :, order[0]]
    for j in order[1:]:
        acc = acc + q[0, :, :, j]
    out = np.empty((n, m, m, parts))
    np.add(acc.transpose(3, 1, 2, 0), 0.0, out=out)
    return out.view(dtype)[..., 0]


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

    @property
    def factor(self):
        """The normalized norm over the Euclidean coordinate norm."""
        return self.scale * _RAW_FACTOR[(self.algebra_id, self.raw_norm)]

    def norm(self, coords):
        """Normalized norm of coordinate vector(s); last axis is coords."""
        return self.factor * _row_norm(coords)

    def sample_ball(self, rng, radius, count):
        """Uniform sample in the normalized-norm ball of the given radius,
        (count, dim) with each coordinate's column contiguous."""
        dim = self.dim
        x = np.ascontiguousarray(rng.normal(size=(count, dim)).T)
        x /= _row_norm(x.T)
        r = radius * rng.random(count) ** (1.0 / dim)
        return ((r / self.factor) * x).T


@dataclass(frozen=True)
class BchConstants:
    """Sampled upper bounds for the contraction-certificate constants.

    c, c' and c'' are safety_factor times the empirical maximum of their
    ratio over the sample, and c_l is safety_factor times sup |Ad_h| = 1.
    d and d' are the empirical extremes of the radial expansion ratio of exp
    and are deliberately not inflated: d is a lower bound, and inflating the
    pair would invalidate the d/d' check.  c_d is K_radius - W_radius
    exactly (both sets are metric balls).
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
    """Batched exp: (n_batch, dim) coords -> (n_batch, n, n) group matrices,
    float64 for so2/so3 and complex for u1/su2.

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
        return np.exp(1j * coords)[..., None]
    # G's entries in row-major order, each a column over the batch, by the
    # matrix forms' own operations (identical bits); where those add a zero
    # entry of I, 0.0 + x turns -0.0 into +0.0 as that addition does
    c = np.ascontiguousarray(coords.T)
    if aid == "so2":
        # sin(x) is +-0.0 only at x = +-0.0, so zero vectors give exactly I
        cos, sin = np.cos(c[0]), np.sin(c[0])
        cols = (cos, 0.0 - sin, 0.0 + sin, cos)
    else:
        # hypot keeps theta, and so the axis, exact for subnormal coords
        theta = np.hypot(np.hypot(c[0], c[1]), c[2])
        axis = np.divide(c, theta, out=np.zeros_like(c), where=theta > 0.0)
        if aid == "so3":
            # I + sin(theta) K + v (n n^T - I): K = X(n), K^2 = n n^T - I
            x, y, z = axis
            v = 2.0 * np.sin(0.5 * theta) ** 2
            sx, sy, sz = np.sin(theta) * axis
            d = 1.0 + v * (axis * axis - 1.0)
            vxy, vxz, vyz = v * (x * y), v * (x * z), v * (y * z)
            cols = (d[0], (0.0 - sz) + vxy, (0.0 + sy) + vxz,
                    (0.0 + sz) + vxy, d[1], (0.0 - sx) + vyz,
                    (0.0 - sy) + vxz, (0.0 + sx) + vyz, d[2])
        else:
            # cos(theta/2) I + 2 sin(theta/2) K as complex products, the
            # zeros of K = X(n) being +0.0
            cos, s2 = np.cos(0.5 * theta), 2.0 * np.sin(0.5 * theta)
            hx, hy, hz = 0.5 * axis + 0.0
            cols = (cos + s2 * (1j * hz), 0.0 * cos + s2 * (hy + 1j * hx),
                    0.0 * cos + s2 * (-hy + 1j * hx), cos + s2 * (1j * -hz))
    return np.stack(cols, axis=-1).reshape(-1, alg.matrix_dim, alg.matrix_dim)


def _sine_cosine(alg, mats):
    """Batched sine vector sin(a) n and cosine of the rotation angle a.

    An element is cos(a) I + sin(a) X(n), n a unit algebra direction; a is
    |log| (u1, so2, so3) or |log| / 2 (su2).  The sine's coordinates are on
    its last axis, each one's column contiguous.
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
    else:
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        skew = ((b + c).imag, (b - c).real, (a - d).imag)
        cosine = 0.5 * (a + d).real
    return np.moveaxis(0.5 * np.stack(skew), 0, -1), cosine


def _angle_pass(alg, mats):
    """Sine vector, cosine, |sine| and |log| in Euclidean coordinates of a
    stack: the one sine/cosine/atan2 pass that its distances and its log
    share.

    atan2 of the (sine, cosine) parts recovers the rotation angle with full
    absolute accuracy at both ends of [0, pi]; this realizes |log(g)| without
    the branch-sensitive axis extraction.
    """
    sine, cosine = _sine_cosine(alg, mats)
    s = _row_norm(sine)
    angle = np.arctan2(s, cosine)
    return sine, cosine, s, 2.0 * angle if alg.algebra_id == "su2" else angle


def _log_coords(alg, mats, angles=None):
    """Principal log of a stack of group matrices: (n, m, m) -> (n, dim).

    The atan2 angle, signed (u1, so2) or times the unit sine vector (so3,
    and su2 as the quaternion log).  Near an SO(3) half turn the axis is the
    dominant column of the symmetric part cos(a) I + (1 - cos a) n n^T.
    ``angles`` is the stack's `_angle_pass`, where the caller has it.
    """
    if alg.dim == 1:
        sine, cosine = (angles or _sine_cosine(alg, mats))[:2]
        return np.arctan2(sine, cosine[..., None])
    sine, cosine, s, angle = angles or _angle_pass(alg, mats)
    # zero sine: the identity (any axis) or a half turn (keep its angle)
    axis = np.divide(sine, s[..., None], out=np.zeros_like(sine),
                     where=s[..., None] > 0)
    axis[s == 0, -1] = 1.0
    far = cosine < 0.0
    if alg.algebra_id == "so3" and np.any(far):
        # n n^T on (3, 3, m) columns; the einsum keeps its (m, 3) rows, as
        # its rounding decides the axis sign next to a half turn
        c = cosine[far]
        r = np.ascontiguousarray(np.moveaxis(np.asarray(mats)[far].real, 0, -1))
        nn = (0.5 * (r + r.swapaxes(0, 1)) - c * np.eye(3)[:, :, None]) / (1.0 - c)
        diag = nn[[0, 1, 2], [0, 1, 2]]
        i = np.argmax(diag, axis=0)
        n = nn[i, :, np.arange(len(i))] / np.sqrt(diag.max(axis=0))[:, None]
        flip = np.einsum("ij,ij->i", n, sine[far]) < 0.0
        axis[far] = np.where(flip[:, None], -n, n)
    return angle[..., None] * axis


def _distances_to_identity(alg, mats):
    """Batched |log g| in the normalized norm; the distance of g from h is
    that of g^-1 h (left invariance)."""
    return alg.factor * _angle_pass(alg, mats)[3]


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
    euv = _compose(eu, _exp_matrices(alg, v))
    conj = _compose(euv, eu, adjoint=True)
    return u, v, eu, _log_coords(alg, euv), conj


def estimate_bch_constants(alg, sets, sample_count=2000, safety_factor=1.25,
                           seed=0):
    """Estimate the seven contraction constants from seeded samples.

    The three BCH ratios are reported as safety_factor times their
    empirical maximum over the sample; d and d' are the raw empirical
    extremes of |exp(u)| / |u|; c_l is safety_factor and c_d the closed-form
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

    return BchConstants(
        c=safety_factor * c_emp,
        c_prime=safety_factor * cp_emp,
        c_dprime=safety_factor * cdd_emp,
        d=d_emp,
        d_prime=dp_emp,
        # Ad_h is a rotation (so3, su2) or the identity (u1, so2) in
        # Euclidean coordinates, and every supported norm is a multiple of
        # those, so sup |Ad_h| is exactly 1
        c_l=safety_factor,
        c_d=sets.K_radius - sets.W_radius,
        sample_count=sample_count,
        safety_factor=safety_factor,
        excluded_fraction=float(excluded),
    )


# ---------------------------------------------------------------------------
# Haar quadrature
# ---------------------------------------------------------------------------

def haar_integrate(f, group, n_theta=64):
    """Normalized Haar average of f over U(1) or SO(2) by the n_theta-point
    trapezoid rule on equispaced angles, exact for trigonometric polynomials
    of degree < n_theta; f receives the node matrices.  Reduction is
    compensated and in fixed node order.
    """
    if group not in ("U1", "SO2"):
        raise ValueError(f"no Haar rule for group {group!r} (U1 or SO2)")
    aid = ALGEBRA_OF[group]
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    # the unit-scale Euclidean algebra: exp reads only its id
    nodes = _exp_matrices(NormedAlgebra(aid, "euclid", 1.0, np.pi),
                          theta[:, None])
    weights = np.full(len(nodes), 1.0 / len(nodes))
    values = [np.asarray(f(g), dtype=complex) for g in nodes]
    return weighted_sum(weights, values)
