"""Compact matrix group numerics.

Supported groups are U(1), SO(2), SO(3) and SU(2) in their defining
representations.  The module provides batched exp/log between a normed Lie
algebra and the group, the distance to the identity, the U(1)/SO(2)
trapezoid Haar rule, and the constants (c, c', c'', d, d', c_l, c_d) of the
quadratic contraction certificate of the averaging iteration, in closed
form.

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
  * n group values are (parts, m, m, n) float64 columns, parts 1 for SO(2)
    and SO(3) and 2 (real, imaginary) for U(1) and SU(2).
"""

import numpy as np

from .errors import InvalidAlgebraVector, Value
from .sums import weighted_sum

ALGEBRA_OF = {"U1": "u1", "SO2": "so2", "SO3": "so3", "SU2": "su2"}
GROUP_OF = {v: k for k, v in ALGEBRA_OF.items()}
MATRIX_DIM = {"u1": 1, "so2": 2, "so3": 3, "su2": 2}
ALGEBRA_DIM = {"u1": 1, "so2": 1, "so3": 3, "su2": 3}

# Principal-branch-safe radius of exp in Euclidean coordinates: eigen-angles
# of exp(X(c)) stay inside (-pi, pi) strictly below these radii.
_BRANCH_RADIUS_EUCLID = {"u1": np.pi, "so2": np.pi, "so3": np.pi, "su2": 2 * np.pi}
# sup |[u,v]| / (|u| |v|) in the Euclidean coordinate norm (structure
# constants of the four supported algebras; abelian ones commute).
_COMMUTATOR_SUP_EUCLID = {"u1": 0.0, "so2": 0.0, "so3": 1.0, "su2": 1.0}
# sup |log(e^u e^v) - u - v| / (|u| |v|) over the normalized unit ball, the
# BCH gap ratio, rounded up.  It is 0 where the algebra commutes, since the
# doubled unit ball stays inside the principal branch.  For so3 and su2 the
# normalized norm is the Euclidean one on rotation vectors under both raw
# norms, and Ad-invariance leaves |u|, |v| and their angle: the maximum,
# 0.51450064367, is at |u| = |v| = 1 and an angle of 1.5126 rad (the tests
# search for it).
_BCH_GAP_SUP = {"u1": 0.0, "so2": 0.0, "so3": 0.5145007, "su2": 0.5145007}
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
    """Stacked products a[n] b[n], or a[n] b[n]^H with ``adjoint``, of value
    columns: re = ar br - ai bi and im = ar bi + ai br (numpy's complex
    multiply fuses them), summed over j as (j0 + j1) + j2, or (j0 + j2) + j1
    for the adjoint, then added to 0.0 in C order.  These are the bits of
    np.einsum("nij,njk->nik") and "nij,nkj->nik" with b.conj() on C-ordered
    matrix stacks, whose order follows the strides."""
    m = a.shape[1]
    B = b.swapaxes(1, 2) if adjoint else b
    q = a[:, None, :, :, None] * B[None, :, None]       # (pa, pb, i, j, k, n)
    if len(a) == 2:     # with adjoint, b^H's imaginary part is -bi, exactly
        re, im = (np.add, np.subtract) if adjoint else (np.subtract, np.add)
        re(q[0, 0], q[1, 1], out=q[0, 0])
        im(q[1, 0], q[0, 1], out=q[0, 1])
    order = (0, 2, 1) if adjoint and m == 3 else range(m)
    acc = q[0, :, :, order[0]]
    for j in order[1:]:
        acc = acc + q[0, :, :, j]
    return np.add(acc, 0.0, order="C")


def _inverse(values):
    """g^-1 = g^H of each value: the transpose, imaginary part negated."""
    inv = values.swapaxes(1, 2).copy()
    np.negative(inv[1:], out=inv[1:])
    return inv


def _matrices(values):
    """The C-ordered (n, m, m) matrices of value columns, for BLAS."""
    x = np.ascontiguousarray(values.transpose(3, 1, 2, 0))
    return (x.view(complex) if len(values) == 2 else x)[..., 0]


def _columns(mats, out=None):
    """The value columns of (n, m, m) matrices, two parts if complex, in a
    new array or copied into ``out``."""
    parts = 2 if np.iscomplexobj(mats) else 1
    x = np.ascontiguousarray(mats, dtype=complex if parts == 2 else float)
    x = x.view(float).reshape(*x.shape, parts).transpose(3, 1, 2, 0)
    if out is None:
        out = np.empty(x.shape)
    np.copyto(out, x)
    return out


class NormedAlgebra(Value):
    """Algebra with normalized norm |.| = scale * raw_norm.

    ``injectivity_margin`` is the radius (in the normalized norm) within
    which log is trusted: exp is injective there and log returns the
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


class BchConstants(Value):
    """Upper bounds for the contraction-certificate constants.

    c is safety_factor times the BCH gap ratio's supremum; c', c'' and c_l
    are safety_factor times the suprema of |log(e^u e^v)| / |u + v|,
    |e^u e^v e^-u| / (|v| (1 + |u|)) and |Ad_h|, each exactly 1.  d and d'
    bound the radial expansion |exp u| / |u|, which is exactly 1 on the
    margin ball, and are not inflated: d is a lower bound, and inflating the
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
    safety_factor: float

    def _check(self):
        if not (self.d <= self.d_prime):
            raise ValueError("d must be <= d_prime")
        for name in ("c", "c_prime", "c_dprime", "d", "d_prime", "c_l", "c_d"):
            if getattr(self, name) < 0:
                raise ValueError(f"constant {name} must be nonnegative")
        if self.safety_factor < 1.0:
            raise ValueError("safety_factor must be >= 1")


class AmbientSets(Value):
    """Metric balls W (range of the maps) and the compact K around it."""

    W_radius: float = 1.5
    K_radius: float = 2.5

    def _check(self):
        if self.W_radius < 1.0:
            raise ValueError("W must contain the unit ball: W_radius >= 1")
        if not self.K_radius > self.W_radius:
            raise ValueError("K must strictly contain the closure of W")


# ---------------------------------------------------------------------------
# exp / log / distance
# ---------------------------------------------------------------------------

def _exp_matrices(alg, coords):
    """Batched exp: (n, dim) coords -> (parts, m, m, n) value columns.

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
    # G's entries in row-major order, each a column over the batch, by the
    # matrix forms' own operations (identical bits); where those add a zero
    # entry of I, 0.0 + x turns -0.0 into +0.0 as that addition does
    c = np.ascontiguousarray(coords.T)
    if aid == "u1":
        cols = (np.exp(1j * c[0]),)
    elif aid == "so2":
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
    cols = np.stack(cols)
    if np.iscomplexobj(cols):
        cols = np.stack((cols.real, cols.imag))
    return cols.reshape(-1, alg.matrix_dim, alg.matrix_dim, len(coords))


def _sine_cosine(alg, values):
    """Batched sine vector sin(a) n and cosine of the rotation angle a.

    An element is cos(a) I + sin(a) X(n), n a unit algebra direction; a is
    |log| (u1, so2, so3) or |log| / 2 (su2).  The sine's coordinates are on
    its last axis, each one's column contiguous.
    """
    r = values[0]
    if alg.algebra_id == "u1":
        return np.moveaxis(values[1, 0, :1], 0, -1), r[0, 0]
    if alg.algebra_id == "so2":
        return np.moveaxis(r[1, :1], 0, -1), r[0, 0]
    if alg.algebra_id == "so3":
        skew = (r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1])
        cosine = 0.5 * (r[0, 0] + r[1, 1] + r[2, 2] - 1.0)
    else:
        im = values[1]
        skew = (im[0, 1] + im[1, 0], r[0, 1] - r[1, 0], im[0, 0] - im[1, 1])
        cosine = 0.5 * (r[0, 0] + r[1, 1])
    return np.moveaxis(0.5 * np.stack(skew), 0, -1), cosine


def _angle_pass(alg, values):
    """Sine vector, cosine, |sine| and |log| in Euclidean coordinates of a
    stack: the one sine/cosine/atan2 pass that its distances and its log
    share.

    atan2 of the (sine, cosine) parts recovers the rotation angle with full
    absolute accuracy at both ends of [0, pi]; this realizes |log(g)| without
    the branch-sensitive axis extraction.
    """
    sine, cosine = _sine_cosine(alg, values)
    s = _row_norm(sine)
    angle = np.arctan2(s, cosine)
    return sine, cosine, s, 2.0 * angle if alg.algebra_id == "su2" else angle


def _log_coords(alg, values, angles=None):
    """Principal log of a value stack: (parts, m, m, n) -> (n, dim).

    The atan2 angle, signed (u1, so2) or times the unit sine vector (so3,
    and su2 as the quaternion log).  Near an SO(3) half turn the axis is the
    dominant column of the symmetric part cos(a) I + (1 - cos a) n n^T.
    ``angles`` is the stack's `_angle_pass`, where the caller has it.
    """
    if alg.dim == 1:
        sine, cosine = (angles or _sine_cosine(alg, values))[:2]
        return np.arctan2(sine, cosine[..., None])
    sine, cosine, s, angle = angles or _angle_pass(alg, values)
    # zero sine: the identity (any axis) or a half turn (keep its angle)
    axis = np.divide(sine, s[..., None], out=np.zeros_like(sine),
                     where=s[..., None] > 0)
    axis[s == 0, -1] = 1.0
    far = cosine < 0.0
    if alg.algebra_id == "so3" and np.any(far):
        # n n^T on (3, 3, m) columns; the einsum keeps its (m, 3) rows, as
        # its rounding decides the axis sign next to a half turn
        c = cosine[far]
        r = values[0][:, :, far]
        nn = (0.5 * (r + r.swapaxes(0, 1)) - c * np.eye(3)[:, :, None]) / (1.0 - c)
        diag = nn[[0, 1, 2], [0, 1, 2]]
        i = np.argmax(diag, axis=0)
        n = nn[i, :, np.arange(len(i))] / np.sqrt(diag.max(axis=0))[:, None]
        flip = np.einsum("ij,ij->i", n, sine[far]) < 0.0
        axis[far] = np.where(flip[:, None], -n, n)
    return angle[..., None] * axis


def _distances_to_identity(alg, values):
    """Batched |log g| in the normalized norm; the distance of g from h is
    that of g^-1 h (left invariance)."""
    return alg.factor * _angle_pass(alg, values)[3]


# ---------------------------------------------------------------------------
# norm normalization
# ---------------------------------------------------------------------------

def normalize_algebra_norm(algebra_id, raw_norm="euclid"):
    """The normed algebra whose unit ball is BCH-ready, in closed form.

    The scale is the max of the exact commutator-ratio supremum for the
    algebra (the four supported algebras have closed-form structure
    constants), so that |[u,v]| <= |u||v|, and the injectivity floor that
    places the *doubled* unit ball strictly inside the principal branch of
    exp: products of two unit-ball exponentials must stay wrap-free,
    otherwise the BCH gap ratios pick up spurious branch jumps (the abelian
    gap must vanish identically).  Both properties hold by these closed
    forms; the tests check them by sampling for every algebra and raw norm.
    """
    if (algebra_id, raw_norm) not in _RAW_FACTOR:
        raise ValueError(f"unsupported (algebra, raw_norm): {algebra_id}, {raw_norm}")
    factor = _RAW_FACTOR[(algebra_id, raw_norm)]
    branch_raw = factor * _BRANCH_RADIUS_EUCLID[algebra_id]
    comm_sup_raw = _COMMUTATOR_SUP_EUCLID[algebra_id] / factor
    scale = max(comm_sup_raw, 2.0 / (_INJ_SAFETY * branch_raw))
    return NormedAlgebra(algebra_id=algebra_id, raw_norm=raw_norm, scale=scale,
                         injectivity_margin=_INJ_SAFETY * scale * branch_raw)


# ---------------------------------------------------------------------------
# contraction constants
# ---------------------------------------------------------------------------

def estimate_bch_constants(alg, sets, safety_factor=1.25):
    """The seven contraction constants of a normed algebra, in closed form.

    c is safety_factor times the algebra's BCH gap supremum; c', c'' and c_l
    are safety_factor, their ratios' suprema being 1: c' is reached on
    commuting pairs, c'' is 1 / (1 + |u|) since Ad is an isometry, and
    Ad_h is a rotation (so3, su2) or the identity (u1, so2) in Euclidean
    coordinates, every supported norm a multiple of those.  d = d' = 1, as
    log(exp u) = u on the margin ball, and c_d is the gap between the two
    ambient balls.  Nothing is sampled.
    """
    return BchConstants(
        c=safety_factor * _BCH_GAP_SUP[alg.algebra_id],
        c_prime=safety_factor,
        c_dprime=safety_factor,
        d=1.0,
        d_prime=1.0,
        c_l=safety_factor,
        c_d=sets.K_radius - sets.W_radius,
        safety_factor=safety_factor,
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
    nodes = _matrices(_exp_matrices(NormedAlgebra(aid, "euclid", 1.0, np.pi),
                                    theta[:, None]))
    weights = np.full(len(nodes), 1.0 / len(nodes))
    values = [np.asarray(f(g), dtype=complex) for g in nodes]
    return weighted_sum(weights, values)
