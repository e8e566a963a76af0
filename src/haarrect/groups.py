"""Compact group numerics on unit complex numbers and unit quaternions.

Supported groups are U(1), SO(2), SO(3) and SU(2).  The module provides
batched exp/log between a normed Lie algebra and the group, the distance to
the identity, the U(1)/SO(2) trapezoid Haar rule, and the constants (c, c',
c'', d, d', c_l, c_d) of the quadratic contraction certificate of the
averaging iteration, in closed form.

Conventions fixed here and relied on everywhere else:
  * n group values are (parts, n) float64 columns: (re, im) of a unit
    complex number for U(1) and SO(2), (w, x, y, z) of a unit quaternion
    for SU(2) and SO(3), the latter up to sign; parts is dim + 1;
  * one product per layout, the complex or the Hamilton product, and the
    inverse is the conjugate.  SO(3) quaternions rotate by q v q^-1; the
    su(2) basis i sigma_k / 2 brackets as [e1, e2] = -e3, so su(2)'s exp
    and log negate the vector part and the same Hamilton product serves;
  * algebra coordinates are real vectors in the bases of the README's
    numerical conventions; exp is (cos theta, sin theta) (u1, so2) or
    (cos(theta/2), +-sin(theta/2) n) (so3, su2) with theta = |c| and n the
    unit axis, valid at any angle; log is the atan2 angle on the principal
    branch times the unit vector part;
  * the norm on the algebra is ``scale * raw_norm`` and the group distance
    is ``|log(g^-1 h)|`` in that norm (left translation of the norm);
  * exp of the exact zero vector returns the exact identity.
"""

import numpy as np

from .errors import InvalidAlgebraVector, Value
from .sums import weighted_sum

ALGEBRA_OF = {"U1": "u1", "SO2": "so2", "SO3": "so3", "SU2": "su2"}
GROUP_OF = {v: k for k, v in ALGEBRA_OF.items()}
ALGEBRA_DIM = {"u1": 1, "so2": 1, "so3": 3, "su2": 3}

# The sign of the vector part of exp in the Hamilton product's orientation:
# e_k -> i_k / 2 for so(3) and e_k -> -i_k / 2 for su(2)
_VECTOR_SIGN = {"so3": 1.0, "su2": -1.0}
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


def _compose(a, b):
    """Products a[:, i] b[:, i] of value columns: the complex product of
    (re, im) columns or the Hamilton product of (w, x, y, z) columns,
    broadcast over the trailing axes."""
    if len(a) == 2:
        (ar, ai), (br, bi) = a, b
        return np.array([ar * br - ai * bi, ar * bi + ai * br])
    (w1, x1, y1, z1), (w2, x2, y2, z2) = a, b
    return np.array([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2])


def _inverse(values):
    """g^-1 of each value: the conjugate, its vector part negated."""
    inv = values.copy()
    np.negative(inv[1:], out=inv[1:])
    return inv


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

def _exp(alg, coords):
    """Batched exp: (n, dim) coords -> (dim + 1, n) value columns.

    (cos theta, sin theta) for u1 and so2, and (cos(theta/2), sign
    sin(theta/2) n) for so3 and su2, with theta = |coords|, n the unit axis
    and the sign of `_VECTOR_SIGN`, taken inside n.  The zero vector, of
    either sign, gives the exact identity, +0.0 parts included.  Non-finite
    coordinates raise InvalidAlgebraVector.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if not np.all(np.isfinite(coords)):
        raise InvalidAlgebraVector(f"non-finite {alg.algebra_id} coords")
    c = np.ascontiguousarray(coords.T)
    if alg.dim == 1:
        return np.array([np.cos(c[0]), 0.0 + np.sin(c[0])])  # -0.0 -> +0.0
    theta = np.hypot(np.hypot(c[0], c[1]), c[2])  # exact for subnormals
    axis = np.divide(_VECTOR_SIGN[alg.algebra_id] * c, theta,
                     out=np.zeros_like(c), where=theta > 0.0)
    return np.concatenate([np.cos(0.5 * theta)[None],
                           np.sin(0.5 * theta) * axis])


def _angle_pass(alg, values):
    """|vector part| and |log| in Euclidean coordinates of a value stack:
    the one atan2 pass that its distances and its log share.

    The angle is atan2(|v|, w) for u1 and so2, twice that for su2, and
    2 atan2(|v|, |w|) for so3, whose q and -q are one rotation; atan2 keeps
    full absolute accuracy at both ends of the angle range.
    """
    s = _row_norm(np.moveaxis(values[1:], 0, -1))
    w = np.abs(values[0]) if alg.algebra_id == "so3" else values[0]
    angle = np.arctan2(s, w)
    return s, angle if alg.dim == 1 else 2.0 * angle


def _log_coords(alg, values, angles=None):
    """Principal log of a value stack: (dim + 1, n) -> (n, dim).

    The signed atan2 angle (u1, so2), or the angle times the unit vector
    part, negated for su2 and taking the sign of w for so3.  ``angles`` is
    the stack's `_angle_pass`, where the caller has it.
    """
    if alg.dim == 1:
        return np.moveaxis(np.arctan2(values[1:], values[0]), 0, -1)
    s, angle = angles or _angle_pass(alg, values)
    v = values[1:]
    axis = np.divide(v, s, out=np.zeros_like(v), where=s > 0)
    # a zero vector part: the identity (angle 0) or -1 in SU(2) (keep 2 pi)
    axis[-1, s == 0] = 1.0
    if alg.algebra_id == "so3":
        angle = np.copysign(angle, values[0])
    return np.moveaxis(_VECTOR_SIGN[alg.algebra_id] * angle * axis, 0, -1)


def _distances_to_identity(alg, values):
    """Batched |log g| in the normalized norm; the distance of g from h is
    that of g^-1 h (left invariance)."""
    return alg.factor * _angle_pass(alg, values)[1]


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
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    cos, sin = np.cos(theta), np.sin(theta)
    if group == "U1":
        nodes = np.empty((n_theta, 1, 1), dtype=complex)
        nodes.real[:, 0, 0], nodes.imag[:, 0, 0] = cos, sin
    else:   # 0.0 - sin: +0.0 at theta = 0
        nodes = np.moveaxis(np.array([[cos, 0.0 - sin], [sin, cos]]), -1, 0)
    weights = np.full(len(nodes), 1.0 / len(nodes))
    values = [np.asarray(f(g), dtype=complex) for g in nodes]
    return weighted_sum(weights, values)
