import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _BASES,
    MATRIX_DIM,
    TAU_GROUP,
    bch_sample,
    columns,
    coords_to_matrix,
    correction,
    group_membership_residual,
    matrices,
    revalidate_bch_constants,
)
from haarrect.errors import InvalidAlgebraVector, LogDomainError
from haarrect.groupoids import attach_haar_density, build_core
from haarrect.groupoids import build_pair_groupoid
from haarrect.groups import (
    _BCH_GAP_SUP,
    AmbientSets,
    BchConstants,
    _compose,
    _distances_to_identity,
    _exp,
    _log_coords,
    estimate_bch_constants,
    haar_integrate,
    normalize_algebra_norm,
)


TAU_ALG = 1e-9      # exp/log round-trip slack, times max(1, |w|)
NORMED = [(aid, raw) for aid in ("u1", "so2", "so3", "su2")
          for raw in ("euclid", "frobenius")]


def bracket_coords(algebra_id, u, v):
    """Lie bracket in coordinates."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if algebra_id in ("u1", "so2"):
        return np.zeros_like(u)
    if algebra_id == "so3":
        return np.cross(u, v)
    # [i sigma_j / 2, i sigma_k / 2] = -eps_jkl i sigma_l / 2
    return -np.cross(u, v)


def exp_mats(alg, coords):
    """exp as the (n, m, m) matrices of the oracles."""
    return matrices(alg, _exp(alg, coords))


def matrix_to_coords(algebra_id, X):
    """Exact linear extraction of coordinates from algebra matrices, the
    inverse of the basis in ``_BASES``."""
    X = np.asarray(X)
    if algebra_id == "u1":
        return X[..., 0, 0].imag[..., None]
    if algebra_id == "so2":
        return X[..., 1, 0].real[..., None]
    if algebra_id == "so3":
        return np.stack([X[..., 2, 1].real, X[..., 0, 2].real,
                         X[..., 1, 0].real], axis=-1)
    return np.stack([2 * X[..., 0, 1].imag, 2 * X[..., 0, 1].real,
                     2 * X[..., 0, 0].imag], axis=-1)


# ---------------------------------------------------------------------------
# exp
# ---------------------------------------------------------------------------

def test_exp_so3_quarter_turn_matches_rodrigues(algebras, oracles):
    alg = algebras["SO3"]
    g = exp_mats(alg, np.array([[0.0, 0.0, np.pi / 2]]))[0]
    assert group_membership_residual(g, "SO3") <= TAU_GROUP
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(g.real - expected).max() < 1e-14
    assert np.abs(g.real - oracles["rodrigues"]([0, 0, np.pi / 2])).max() < 1e-14


def test_exp_zero_is_exact_identity(algebras):
    for tag, alg in algebras.items():
        g = exp_mats(alg, np.zeros((1, alg.dim)))[0]
        assert group_membership_residual(g, tag) <= TAU_GROUP
        assert np.array_equal(g, np.eye(MATRIX_DIM[alg.algebra_id],
                                        dtype=complex))


def test_exp_su2_half_turn_quaternion_oracle(algebras, oracles):
    # coords (0, 0, pi) are (theta/2) i sigma_z with theta = pi
    alg = algebras["SU2"]
    g = exp_mats(alg, np.array([[0.0, 0.0, np.pi]]))[0]
    assert group_membership_residual(g, "SU2") <= TAU_GROUP
    assert np.abs(g - np.diag([1j, -1j])).max() < 1e-14
    q = oracles["quat_exp"]([0.0, 0.0, np.pi])
    assert np.abs(g - oracles["quat_to_su2"](q)).max() < 1e-14


def test_exp_matches_quaternion_oracle_on_random_vectors(algebras, oracles):
    rng = np.random.default_rng(42)
    for _ in range(200):
        w = rng.normal(size=3)
        w *= rng.random() * 2.5 / np.linalg.norm(w)
        g3 = exp_mats(algebras["SO3"], w[None])[0]
        g2 = exp_mats(algebras["SU2"], w[None])[0]
        assert group_membership_residual(g3, "SO3") <= TAU_GROUP
        assert group_membership_residual(g2, "SU2") <= TAU_GROUP
        q = oracles["quat_exp"](w)
        assert np.abs(g3.real - oracles["quat_to_so3"](q)).max() < 1e-13
        assert np.abs(g2 - oracles["quat_to_su2"](q)).max() < 1e-13


def test_exp_rejects_nonfinite(algebras):
    with pytest.raises(InvalidAlgebraVector):
        _exp(algebras["SO3"], np.array([[np.nan, 0.0, 0.0]]))


# 1e-300, the smallest normal double and two subnormals
TINY_ANGLES = (1e-300, 2.2250738585072014e-308, 1e-320, 5e-324)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
       tag=st.sampled_from(["U1", "SO2", "SO3", "SU2"]),
       span=st.sampled_from(["tiny", "margin", "4pi"]))
def test_closed_form_exp_matches_eigh_oracle(algebras, oracles, seed, tag,
                                             span):
    # tiny angles down to subnormals, the ball up to the injectivity margin
    # and whole angles up to 4 pi (exact SU(2) homomorphisms turn that far);
    # ten exact zeros
    alg = algebras[tag]
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(200, alg.dim))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    if span == "tiny":
        u = axes * rng.choice(TINY_ANGLES, 200)[:, None]
    elif span == "margin":
        u = alg.sample_ball(rng, alg.injectivity_margin, 200)
    else:
        u = axes * rng.uniform(0.0, 4 * np.pi, 200)[:, None]
    u[:10] = 0.0
    mats = exp_mats(alg, u)
    oracle = oracles["eigh_exp"](alg.algebra_id, u)
    real = tag in ("SO2", "SO3")
    assert mats.dtype == (np.float64 if real else complex)
    assert mats.shape == oracle.shape
    assert np.abs(mats - oracle).max() <= 1e-13
    if tag == "U1":
        assert np.array_equal(mats, oracle)
    assert np.array_equal(mats[:10], np.broadcast_to(
        np.eye(MATRIX_DIM[alg.algebra_id], dtype=complex), mats[:10].shape))
    assert group_membership_residual(mats, tag) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_exp_matrices_reject_nonfinite_coords(algebras, bad):
    for alg in algebras.values():
        u = np.zeros((3, alg.dim))
        u[1, -1] = bad
        with pytest.raises(InvalidAlgebraVector):
            _exp(alg, u)


# ---------------------------------------------------------------------------
# log
# ---------------------------------------------------------------------------

def test_log_identity_is_zero(algebras):
    for tag, alg in algebras.items():
        eye = np.eye(MATRIX_DIM[alg.algebra_id],
                     dtype=float if tag in ("SO2", "SO3") else complex)
        z = _log_coords(alg, columns(alg, eye[None]))[0]
        assert np.abs(z).max() == 0.0


def test_log_so3_quarter_turn(algebras):
    alg = algebras["SO3"]
    g = exp_mats(alg, np.array([[0.0, 0.0, np.pi / 2]]))
    assert group_membership_residual(g, "SO3") <= TAU_GROUP
    back = _log_coords(alg, columns(alg, g))[0]
    assert np.abs(back - [0, 0, np.pi / 2]).max() < 1e-14


def test_log_exp_round_trip_bulk(algebras):
    # full 10^4-sample oracle on so(3); 2000 per remaining group
    counts = {"SO3": 10_000, "U1": 2000, "SO2": 2000, "SU2": 2000}
    for tag, alg in algebras.items():
        rng = np.random.default_rng(7)
        u = alg.sample_ball(rng, 1.0, counts[tag])
        mats = exp_mats(alg, u)
        assert group_membership_residual(mats, tag) <= TAU_GROUP
        back = _log_coords(alg, columns(alg, mats))
        worst = np.max(alg.norm(back - u) / np.maximum(1.0, alg.norm(u)))
        assert worst <= 1e-12


def test_log_exp_round_trip_margin_ball(algebras):
    # round trip holds out to the injectivity margin, not just the unit ball
    for tag, alg in algebras.items():
        rng = np.random.default_rng(8)
        u = alg.sample_ball(rng, alg.injectivity_margin, 500)
        mats = exp_mats(alg, u)
        assert group_membership_residual(mats, tag) <= TAU_GROUP
        back = _log_coords(alg, columns(alg, mats))
        assert np.all(alg.norm(back - u) <= 1e-12 * np.maximum(1.0, alg.norm(u)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
       tag=st.sampled_from(["U1", "SO2", "SO3", "SU2"]))
def test_closed_form_log_matches_schur_oracle(algebras, oracles, seed, tag):
    # the whole ball up to the injectivity margin (eigen-angles up to
    # 0.99 pi), plus a shell just inside it: for SO3 that shell is next to
    # a half turn, where w is near 0 and the vector part near unit length
    alg = algebras[tag]
    rng = np.random.default_rng(seed)
    ball = alg.sample_ball(rng, alg.injectivity_margin, 150)
    shell = alg.sample_ball(rng, 1.0, 50)
    shell *= (alg.injectivity_margin / alg.norm(shell)
              * rng.uniform(0.9, 1.0, 50))[:, None]
    u = np.vstack([ball, shell])
    mats = exp_mats(alg, u)
    closed = _log_coords(alg, columns(alg, mats))
    oracle = np.array([oracles["schur_log"](alg.algebra_id, m) for m in mats])
    assert np.abs(closed - oracle).max() <= 1e-12
    assert np.abs(closed - u).max() <= 1e-12


def test_so3_log_near_half_turn(algebras, oracles):
    # angles from just past pi/2 to within 1e-8 pi of a half turn (past the
    # margin, where a rotation matrix's skew part alone would lose ~7
    # digits; the quaternion's vector part is near unit length there),
    # about random axes and the coordinate axes
    alg = algebras["SO3"]
    rng = np.random.default_rng(5)
    axes = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(194, 3))])
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([
        np.linspace(0.5001 * np.pi, alg.injectivity_margin, 100),
        np.pi * (1.0 - np.logspace(-2, -8, 100)),
    ])
    u = axes * angles[:, None]
    closed = _log_coords(alg, _exp(alg, u))
    oracle = np.array([oracles["schur_log"]("so3", m)
                       for m in exp_mats(alg, u)])
    assert np.abs(closed - oracle).max() <= 1e-12
    assert np.abs(closed - u).max() <= 1e-12


def test_log_outside_margin_raises(algebras):
    # the one log that must stay inside the margin is the correction's log
    # of psi; a single-pair core hands it one psi
    core = build_core(build_pair_groupoid(1), (0,))
    mu = attach_haar_density(core, "uniform")
    alg = algebras["U1"]  # margin 2.0, full circle reaches ~2.02
    with pytest.raises(LogDomainError):
        correction(columns(alg, [[[np.exp(1j * np.pi)]]]), core, mu, alg)
    # -I in SU(2): zero sine vector, yet the full half-turn angle
    with pytest.raises(LogDomainError):
        correction(columns(algebras["SU2"], -np.eye(2, dtype=complex)[None]),
                   core, mu, algebras["SU2"])


def test_group_membership_enforced():
    # the membership oracle of the tests rejects a non-member
    shear = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
    assert group_membership_residual(shear, "SU2") > TAU_GROUP


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_so3_euclid_scale_is_one(algebras):
    # cross-product identity: |u x v| <= |u||v| holds exactly at scale 1
    alg = algebras["SO3"]
    assert alg.scale == 1.0
    rng = np.random.default_rng(0)
    u = rng.normal(size=(500, 3))
    v = rng.normal(size=(500, 3))
    cross = np.linalg.norm(np.cross(u, v), axis=1)
    assert np.all(cross <= np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1) + 1e-12)


def test_normalize_u1_scale_exceeds_reciprocal_pi(algebras):
    assert algebras["U1"].scale >= 1.0 / np.pi
    assert algebras["U1"].injectivity_margin > 1.0  # unit ball inside margin


def test_normalize_su2_frobenius_sampling_maximization_oracle():
    alg = normalize_algebra_norm("su2", "frobenius")
    rng = np.random.default_rng(123)
    u = rng.normal(size=(100_000, 3))
    v = rng.normal(size=(100_000, 3))
    # Frobenius raw norm of X(c) is |c| / sqrt(2); bracket is -(u x v)
    raw = lambda c: np.linalg.norm(c, axis=-1) / np.sqrt(2.0)
    ratios = raw(np.cross(u, v)) / (raw(u) * raw(v))
    sampled_sup = ratios.max()
    assert sampled_sup <= alg.scale <= sampled_sup * 1.01
    assert abs(alg.scale - np.sqrt(2.0)) < 1e-12


def test_bracket_matches_matrix_commutator(algebras):
    rng = np.random.default_rng(6)
    for alg_id in ("u1", "so2", "so3", "su2"):
        dim = {"u1": 1, "so2": 1, "so3": 3, "su2": 3}[alg_id]
        for _ in range(50):
            u, v = rng.normal(size=dim), rng.normal(size=dim)
            X, Y = coords_to_matrix(alg_id, u), coords_to_matrix(alg_id, v)
            comm = matrix_to_coords(alg_id, X @ Y - Y @ X)
            assert np.abs(comm - bracket_coords(alg_id, u, v)).max() < 1e-13


@pytest.mark.parametrize("seed", [20260401, 0, 1, 2])
@pytest.mark.parametrize("algebra_id, raw_norm", NORMED)
def test_normalized_norm_is_bch_ready(algebra_id, raw_norm, seed):
    # what the averaging certificate needs of the closed-form scale: the
    # bracket bound on the unit ball and exp/log injective on the margin ball
    alg = normalize_algebra_norm(algebra_id, raw_norm)
    rng = np.random.default_rng(seed)
    u = alg.sample_ball(rng, 1.0, 4000)
    v = alg.sample_ball(rng, 1.0, 4000)
    br = bracket_coords(algebra_id, u, v)
    assert np.all(alg.norm(br) <= alg.norm(u) * alg.norm(v) + 1e-12)
    # round-trip injectivity witness over the margin ball
    w = alg.sample_ball(rng, alg.injectivity_margin, 4000)
    err = alg.norm(_log_coords(alg, _exp(alg, w)) - w)
    assert np.all(err <= TAU_ALG * np.maximum(1.0, alg.norm(w)))


@pytest.mark.parametrize("algebra_id, raw_norm, scale, margin", [
    ("u1", "euclid", 0.643050275118769, 1.9999999999999998),
    ("u1", "frobenius", 0.643050275118769, 1.9999999999999998),
    ("so2", "euclid", 0.643050275118769, 1.9999999999999998),
    ("so2", "frobenius", 0.45470521018035664, 2.0),
    ("so3", "euclid", 1.0, 3.1101767270538954),
    ("so3", "frobenius", 0.7071067811865475, 3.110176727053895),
    ("su2", "euclid", 1.0, 6.220353454107791),
    ("su2", "frobenius", 1.4142135623730951, 6.220353454107791),
])
def test_normalization_is_the_closed_form_to_the_bit(algebra_id, raw_norm,
                                                     scale, margin):
    # arithmetic on constants, so the same bits on any CPU
    alg = normalize_algebra_norm(algebra_id, raw_norm)
    assert alg.scale == scale and alg.injectivity_margin == margin


def test_normalization_draws_no_sample(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("normalization drew a random sample")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for algebra_id, raw_norm in NORMED:
        normalize_algebra_norm(algebra_id, raw_norm)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_commutator_inequality_property(seed):
    for alg_id in ("so3", "su2", "u1"):
        alg = normalize_algebra_norm(alg_id)
        rng = np.random.default_rng(seed)
        u = alg.sample_ball(rng, 1.0, 200)
        v = alg.sample_ball(rng, 1.0, 200)
        br = bracket_coords(alg_id, u, v)
        assert np.all(alg.norm(br) <= alg.norm(u) * alg.norm(v) + 1e-12)


# ---------------------------------------------------------------------------
# left-invariant distance
# ---------------------------------------------------------------------------

def test_distance_at_identity(algebras):
    for tag, alg in algebras.items():
        rng = np.random.default_rng(1)
        g = exp_mats(alg, alg.sample_ball(rng, 1.0, 1))
        assert group_membership_residual(g, tag) <= TAU_GROUP
        assert _distances_to_identity(
            alg, columns(alg, g.conj().swapaxes(-1, -2) @ g)) < 1e-14


def test_distance_to_exp_is_norm(algebras):
    for tag, alg in algebras.items():
        rng = np.random.default_rng(2)
        u = alg.sample_ball(rng, 1.0, 100)
        g = exp_mats(alg, u)
        assert group_membership_residual(g, tag) <= TAU_GROUP
        assert np.abs(_distances_to_identity(alg, columns(alg, g))
                      - alg.norm(u)).max() < 1e-12


def test_left_invariance_of_distance(algebras):
    for tag in ("SO3", "SU2", "U1"):
        alg = algebras[tag]
        rng = np.random.default_rng(3)
        m = MATRIX_DIM[alg.algebra_id]
        trips = exp_mats(alg, alg.sample_ball(rng, 1.0, 3 * 2000)).reshape(
            2000, 3, m, m)
        h, g1, g2 = trips[:500].swapaxes(0, 1)
        inv = lambda g: g.conj().swapaxes(-1, -2)
        d0 = _distances_to_identity(alg, columns(alg, inv(g1) @ g2))
        d1 = _distances_to_identity(alg, columns(alg, inv(h @ g1) @ (h @ g2)))
        assert np.abs(d0 - d1).max() <= 1e-12


def test_distance_agrees_with_log_norm(algebras):
    # the stable trace form must match |log| where log is defined
    for tag, alg in algebras.items():
        rng = np.random.default_rng(4)
        g = exp_mats(alg, alg.sample_ball(
            rng, 0.9 * alg.injectivity_margin, 50))
        assert group_membership_residual(g, tag) <= TAU_GROUP
        via_log = alg.norm(_log_coords(alg, columns(alg, g)))
        assert np.abs(_distances_to_identity(alg, columns(alg, g))
                      - via_log).max() < 1e-11


# ---------------------------------------------------------------------------
# BCH constants
# ---------------------------------------------------------------------------

def test_commuting_pair_has_zero_gap(algebras):
    alg = algebras["SO3"]
    u, v = np.array([0, 0, 0.4]), np.array([0, 0, 0.7])
    eu, ev = exp_mats(alg, np.array([u, v]))
    g = eu @ ev
    assert group_membership_residual(g, "SO3") <= TAU_GROUP
    w = _log_coords(alg, columns(alg, g[None]))[0]
    assert np.abs(w - (u + v)).max() < 1e-13


def test_abelian_bch_estimates(algebras, default_sets):
    for tag in ("U1", "SO2"):
        k = estimate_bch_constants(algebras[tag], default_sets)
        assert k.c == 0.0                         # BCH is exact addition
        assert k.c_prime == k.c_dprime == k.c_l == k.safety_factor
        assert k.d == k.d_prime == 1.0


def bch_gap(alg, u, v):
    """|log(e^u e^v) - u - v| of (n, dim) coordinate rows, by the package's
    exp, product and log."""
    euv = _compose(_exp(alg, u), _exp(alg, v))
    return alg.norm(_log_coords(alg, euv) - (u + v))


def polar_pairs(alg, ru, rv, angle):
    """u = ru e_1 and v = rv (cos(angle) e_1 + sin(angle) e_2) in the
    normalized norm, broadcast together and flattened: every pair up to
    Ad-invariance."""
    ru, rv, angle = (x.ravel() for x in np.broadcast_arrays(ru, rv, angle))
    u = np.zeros((len(ru), alg.dim))
    v = np.zeros_like(u)
    u[:, 0] = ru / alg.factor
    v[:, 0] = rv * np.cos(angle) / alg.factor
    v[:, 1] = rv * np.sin(angle) / alg.factor
    return u, v


NONABELIAN = [(aid, raw) for aid, raw in NORMED if aid in ("so3", "su2")]


@pytest.mark.parametrize("algebra_id, raw_norm", NONABELIAN)
def test_bch_gap_sup_is_the_maximum_over_angles_on_the_unit_sphere(
        algebra_id, raw_norm):
    alg = normalize_algebra_norm(algebra_id, raw_norm)
    angle = np.linspace(0.0, np.pi, 100_001)
    ratio = bch_gap(alg, *polar_pairs(alg, 1.0, 1.0, angle))
    sup = _BCH_GAP_SUP[algebra_id]
    assert sup - 1e-6 <= ratio.max() <= sup
    assert abs(angle[ratio.argmax()] - 1.5126) < 1e-3


@pytest.mark.parametrize("algebra_id", ["so3", "su2"])
def test_bch_gap_ratio_peaks_on_the_unit_spheres(algebra_id):
    # a coarse grid over (|u|, |v|, angle): the ratio grows with both radii
    alg = normalize_algebra_norm(algebra_id)
    radii = np.linspace(0.05, 1.0, 20)
    angle = np.linspace(0.0, np.pi, 65)
    ru, rv, a = np.meshgrid(radii, radii, angle, indexing="ij")
    ratio = bch_gap(alg, *polar_pairs(alg, ru, rv, a)) / (ru * rv).ravel()
    i, j, _ = np.unravel_index(ratio.argmax(), ru.shape)
    assert i == j == len(radii) - 1
    assert ratio.max() <= _BCH_GAP_SUP[algebra_id]


@pytest.mark.parametrize("algebra_id, raw_norm", NORMED)
def test_closed_form_constants_bound_a_large_sample(default_sets, algebra_id,
                                                    raw_norm):
    alg = normalize_algebra_norm(algebra_id, raw_norm)
    # safety factor 1: c is the gap supremum, c' and c'' are 1
    k = estimate_bch_constants(alg, default_sets, safety_factor=1.0)
    u, v, _, log_uv, conj = bch_sample(alg, np.random.default_rng(2024),
                                       10 ** 5)
    nu, nv = alg.norm(u), alg.norm(v)
    gap = alg.norm(log_uv - (u + v))
    if k.c > 0:
        assert (gap / (nu * nv)).max() <= k.c
    # the ratios as inequalities, since where |u + v| or |u| |v| is tiny
    # a ratio is the rounding of log over it
    assert np.all(gap <= k.c * nu * nv + 1e-12)
    assert np.all(alg.norm(log_uv) <= k.c_prime * alg.norm(u + v) + 1e-12)
    assert np.all(_distances_to_identity(alg, conj)
                  <= k.c_dprime * nv * (1.0 + nu) + 1e-12)


def test_constants_draw_no_sample(monkeypatch, default_sets):
    def no_rng(*args, **kwargs):
        raise AssertionError("the constants drew a random sample")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for algebra_id, raw_norm in NORMED:
        estimate_bch_constants(normalize_algebra_norm(algebra_id, raw_norm),
                               default_sets)


def test_so3_witness_pair_quaternion_oracle(algebras, oracles, constants):
    alg = algebras["SO3"]
    u = np.array([0.2, 0.0, 0.0])
    v = np.array([0.0, 0.2, 0.0])
    eu, ev = exp_mats(alg, np.array([u, v]))
    g = eu @ ev
    assert group_membership_residual(g, "SO3") <= TAU_GROUP
    gap_impl = alg.norm(_log_coords(alg, columns(alg, g[None]))[0] - (u + v))
    w_oracle = oracles["quat_log"](
        oracles["quat_mul"](oracles["quat_exp"](u), oracles["quat_exp"](v))
    )
    gap_oracle = np.linalg.norm(w_oracle - (u + v))
    assert abs(gap_impl - gap_oracle) <= 0.05 * gap_oracle
    # second-order prediction: half the cross product
    assert abs(gap_oracle - 0.02) < 2e-4
    # lower witness for c around 0.5
    assert constants["SO3"].c >= gap_oracle / (0.2 * 0.2) * 0.999


def test_d_dprime_bracket_one(constants):
    for tag in ("U1", "SO3", "SU2"):
        k = constants[tag]
        assert k.d <= 1.0 <= k.d_prime
        assert k.d_prime / k.d < 1.0 + 1e-12


def test_revalidation_on_disjoint_seed(algebras, default_sets, constants):
    for tag in ("U1", "SO3", "SU2"):
        sets = default_sets
        v1, v2, v3 = revalidate_bch_constants(algebras[tag], constants[tag],
                                              2000, seed=999)
        assert v1 <= 1e-12 and v2 <= 1e-12 and v3 <= 1e-12


def test_constants_deterministic():
    # closed forms: arithmetic on constants, so the same bits on any CPU
    for algebra_id, raw_norm in NORMED:
        k = estimate_bch_constants(
            normalize_algebra_norm(algebra_id, raw_norm),
            AmbientSets(1.5, 3.0), safety_factor=2.0)
        assert k.as_dict() == {
            "c": 0.0 if algebra_id in ("u1", "so2") else 1.0290014,
            "c_prime": 2.0, "c_dprime": 2.0, "d": 1.0, "d_prime": 1.0,
            "c_l": 2.0, "c_d": 1.5, "safety_factor": 2.0}


def test_containment_checks(algebras, default_sets, constants):
    for tag in ("U1", "SO3", "SU2"):
        alg, k = algebras[tag], constants[tag]
        rng = np.random.default_rng(17)
        radius = min(default_sets.K_radius, 0.99 * alg.injectivity_margin)
        hs = exp_mats(alg, alg.sample_ball(rng, radius, 100))
        gs = exp_mats(alg, alg.sample_ball(rng, 1.0 / k.c_l, 100))
        conj = hs @ gs @ hs.conj().swapaxes(-1, -2)
        assert np.all(_distances_to_identity(alg, columns(alg, conj))
                      <= 1.0 + 1e-9)
        ws = exp_mats(
            alg, alg.sample_ball(
                rng, min(default_sets.W_radius, 0.99 * alg.injectivity_margin), 100)
        )
        bs = exp_mats(alg, alg.sample_ball(rng, 1.0 / k.c_d, 100))
        assert np.all(_distances_to_identity(alg, columns(alg, bs @ ws))
                      <= default_sets.K_radius + 1e-9)


@pytest.mark.parametrize("raw_norm", ["euclid", "frobenius"])
@pytest.mark.parametrize("tag", ["U1", "SO2", "SO3", "SU2"])
def test_adjoint_norm_is_one_and_c_l_is_the_safety_factor(default_sets, tag,
                                                          raw_norm):
    # reference for the closed-form c_l: Ad_h in coordinates, column j the
    # coordinates of h b_j h^-1, over h in the ambient compact and whole turns
    alg = normalize_algebra_norm(tag.lower(), raw_norm)
    rng = np.random.default_rng(3)
    radius = min(default_sets.K_radius, 0.995 * alg.injectivity_margin)
    w = np.concatenate([alg.sample_ball(rng, radius, 256),
                        rng.uniform(-4 * np.pi, 4 * np.pi, (256, alg.dim))])
    hs = exp_mats(alg, w)
    conj = np.einsum("nik,jkl,nml->njim", hs, _BASES[alg.algebra_id],
                     hs.conj())
    ad = matrix_to_coords(alg.algebra_id, conj).swapaxes(-1, -2)
    # every supported norm is a multiple of the Euclidean coordinate norm,
    # so the operator norm is the spectral norm
    spectral = np.linalg.norm(ad, 2, axis=(-2, -1))
    assert np.abs(spectral - 1.0).max() <= 1e-14
    for safety in (1.0, 1.25, 3.5):
        k = estimate_bch_constants(alg, default_sets, safety_factor=safety)
        assert k.c_l == safety


# ---------------------------------------------------------------------------
# Haar quadrature
# ---------------------------------------------------------------------------

def test_circle_nodes_are_the_trapezoid_rotations():
    theta = 2 * np.pi * np.arange(16) / 16
    c, s = np.cos(theta), np.sin(theta)
    expected = {"U1": np.exp(1j * theta)[:, None, None],
                "SO2": np.stack([np.stack([c, -s], axis=-1),
                                 np.stack([s, c], axis=-1)], axis=-2)}
    for tag, want in expected.items():
        nodes = []
        haar_integrate(lambda m: nodes.append(m) or 0.0, tag, n_theta=16)
        assert np.array_equal(np.array(nodes), want)


def test_constant_integrates_to_value():
    for tag in ("U1", "SO2"):
        out = haar_integrate(lambda m: 3.25, tag, n_theta=16)
        assert abs(out - 3.25) < 1e-13


def test_u1_fourier_mode_vanishes():
    out = haar_integrate(lambda m: m[0, 0], "U1", n_theta=2)
    assert abs(out) < 1e-15
    out = haar_integrate(lambda m: m[0, 0] ** 3, "U1", n_theta=8)
    assert abs(out) < 1e-15


@pytest.mark.parametrize("tag", ["SO3", "SU2", "SO4"])
def test_haar_rule_is_only_for_the_circle_groups(tag):
    with pytest.raises(ValueError, match="no Haar rule"):
        haar_integrate(lambda m: 1.0, tag)


# ---------------------------------------------------------------------------
# ambient sets and constants invariants
# ---------------------------------------------------------------------------

def test_ambient_sets_invariants():
    with pytest.raises(ValueError):
        AmbientSets(0.5, 2.5)
    with pytest.raises(ValueError):
        AmbientSets(1.5, 1.5)


def test_bch_constants_invariants():
    with pytest.raises(ValueError):
        BchConstants(c=1, c_prime=1, c_dprime=1, d=2.0, d_prime=1.0,
                     c_l=1, c_d=1, safety_factor=1.25)
    with pytest.raises(ValueError):
        BchConstants(c=1, c_prime=1, c_dprime=1, d=1, d_prime=1,
                     c_l=1, c_d=1, safety_factor=0.5)
