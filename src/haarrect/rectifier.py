"""Defect measurement and Haar-averaged correction of almost-morphisms.

An almost-morphism assigns a group element to every arrow of a groupoid;
it is held as the (n_arrows, m, m) stack of its values, float64 for SO2/SO3
and complex otherwise.  Its defect against a core K is the worst
left-invariant distance of psi(k, p) = phi(p)^-1 phi(k)^-1 phi(k p) from
the identity over the pairs (k, p) with k in K.  One correction step multiplies each value phi(p) by
the exponential of the fiber-weighted average of log psi(., p); iterating
contracts the defect quadratically, which is certified step by step against
the polynomial bound q and the two in-proof bounds.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DefectOverflow,
    DefectTooLarge,
    HaarrectError,
    LogDomainError,
    NonContraction,
    RangeEscape,
)
from .groups import REAL_GROUPS, _angle_pass, _compose
from .groups import _distances_to_identity, _exp_matrices, _log_coords
from .sums import NeumaierSum

Q_CERT_SLACK = 1e-12        # slack on the per-step quadratic certificate
CORRECTION_BOUND_SLACK = 1e-9   # slack on |A| <= (d/d') * defect


@dataclass(frozen=True)
class IterationTrace:
    """Per-step audit record of one rectification run.

    deltas has one more entry than the step lists: deltas[n] is the defect
    before step n and the final entry is the defect of the returned map.
    """

    deltas: tuple
    correction_norms: tuple
    step_moves: tuple
    q_bounds: tuple
    q_certified: tuple
    correction_bound_ok: tuple
    step_bound_ok: tuple
    terminated: str

    def __post_init__(self):
        n = len(self.correction_norms)
        if not (len(self.deltas) == n + 1 == len(self.step_moves) + 1
                == len(self.q_certified) + 1 == len(self.q_bounds) + 1):
            raise ValueError("inconsistent trace lengths")
        if any(d < 0 for d in self.deltas):
            raise ValueError("defects must be nonnegative")

    @property
    def iterations(self):
        return len(self.correction_norms)

    @property
    def total_displacement(self):
        """Cauchy certificate: total distance moved across all steps."""
        return float(np.sum(self.step_moves)) if self.step_moves else 0.0


def _psi_stack(phi, pairs):
    """psi(k, p) = phi(p)^-1 phi(k)^-1 phi(kp) over (k, p, kp) rows; the
    one psi path of the defect, correction and verification.  The stack has
    the dtype of phi: float64 for SO2/SO3, complex otherwise.  The inverses
    are made contiguous once, so that the gathers and the two products run
    on C-ordered stacks."""
    k, p, kp = np.asarray(pairs, dtype=np.intp).reshape(-1, 3).T
    inv = np.ascontiguousarray(phi.conj().swapaxes(-1, -2))
    return inv[p] @ inv[k] @ phi[kp]


def _radius(alg, mats):
    """Largest distance of a matrix stack from the identity (0 if empty)."""
    return float(np.max(_distances_to_identity(alg, mats), initial=0.0))


def _max_distance(alg, psi):
    """Defect of a psi stack, with the angle pass it read: its worst distance
    from the identity, measurable up to the injectivity margin; beyond it,
    an overflow."""
    angles = _angle_pass(alg, psi)
    worst = float(np.max(alg.factor * angles[3], initial=0.0))
    if not np.isfinite(worst):
        raise DefectOverflow("non-finite defect distances")
    if worst > alg.injectivity_margin:
        raise DefectOverflow(f"defect {worst:.6g} beyond measurable range "
                             f"(margin {alg.injectivity_margin:.6g})")
    return worst, angles


def _correction(psi, core, weights, alg, angles=None):
    """Fiber-averaged correction A(p) = exp(sum_k w_k log psi(k, p)) from
    the psi stack over the core pairs and its `_angle_pass`, if read.

    The integration fiber for an arrow p is the core source fiber over
    t(p); composability forces that choice.  Returns the stacked correction
    matrices and their distances to the identity (exact for the radial
    realization: |exp(w)| = |w|).
    """
    pairs = core.pairs
    logs = _log_coords(alg, psi, angles)
    bad = np.flatnonzero(alg.norm(logs) > alg.injectivity_margin)
    if bad.size:
        k, p, _ = pairs[bad[0]]
        raise LogDomainError(f"log psi({k}, {p}) outside injectivity margin")

    # the pairs fill each arrow's row of an (n_arrows, widest fiber) table
    # from the left; per arrow, the same additions in the same order as
    # weighted_sum, then +0.0s, which leave a Neumaier sum's bits alone
    width = core.by_source[2][core.parent.target]
    terms = np.zeros((len(width), width.max(), alg.dim))
    terms[np.arange(width.max()) < width[:, None]] = \
        weights[pairs[:, 0], None] * logs
    acc = NeumaierSum(shape=(len(width), alg.dim))
    for j in range(terms.shape[1]):
        acc.add(terms[:, j])
    avg_coords = acc.value
    return _exp_matrices(alg, avg_coords), alg.norm(avg_coords)


def q_bound(C, k):
    """Quadratic contraction polynomial q(C)."""
    if C < 0:
        raise ValueError("C must be nonnegative")
    return (2.0 * k.c * k.c_l * (k.d_prime * k.c_l + 2.0 * k.d_prime
                                 + k.c * k.c_l * C)
            / k.d_prime ** 2 * C * C)


def admissible_defect_radius(k):
    """Largest certified entry defect: min(1/c_l, 1/c_d, q(C) <= C/2 root).

    For abelian targets the quadratic coefficient vanishes and only the
    two reciprocal guards bind.
    """
    guards = []
    if k.c_l > 0:
        guards.append(1.0 / k.c_l)
    if k.c_d > 0:
        guards.append(1.0 / k.c_d)
    a2 = 2.0 * k.c * k.c_l * (k.d_prime * k.c_l + 2.0 * k.d_prime) / k.d_prime ** 2
    a3 = 2.0 * (k.c * k.c_l) ** 2 / k.d_prime ** 2
    # q(C) <= C/2  <=>  a2*C + a3*C^2 <= 1/2; the root tends to 0 as the
    # constants grow, and 0 stands for it where they overflow
    disc = a2 * a2 + 2.0 * a3
    if a3 > 0:
        guards.append((-a2 + np.sqrt(disc)) / (2.0 * a3) if disc < np.inf
                      else 0.0)
    elif a2 > 0:
        guards.append(0.5 / a2)
    return float(min(guards))


def iterate(phi0, core, weights, alg, constants, sets=None, tol=1e-12,
            max_iter=50):
    """Run the correction iteration until the defect drops below tol.

    ``phi0``, the initial map's value stack, is coerced once: to float64 for
    SO2/SO3 (its real part), to complex otherwise; the limit has that dtype.
    ``weights`` is the density from ``attach_haar_density``: one weight per
    arrow of the parent groupoid, 0 off the core.  Certifies every step
    against q and the two in-proof bounds (|A| <= (d/d') * defect and
    step <= 1/c_d), and raises NonContraction only if the defect grows past
    the averaging precondition 1/c_l.  With ``sets``, the initial map must
    take values in W and every step must stay in K (RangeEscape).  A package
    error raised after the initial defect is measured carries that defect
    as ``initial_defect``.
    """
    phi = (np.ascontiguousarray(np.real(phi0), dtype=float)
           if alg.group_id in REAL_GROUPS else np.asarray(phi0, dtype=complex))
    # one psi stack and angle pass per map: its defect and next correction
    psi = _psi_stack(phi, core.pairs)
    delta, angles = _max_distance(alg, psi)
    initial = delta
    try:
        if sets is not None:
            radius = _radius(alg, phi)
            if radius > sets.W_radius + 1e-9:
                raise RangeEscape("initial map does not take values in W",
                                  radius=radius, limit=sets.W_radius)
        admissible = admissible_defect_radius(constants)
        if delta > admissible:
            raise DefectTooLarge(delta, admissible)

        deltas = [delta]
        correction_norms, step_moves, q_bounds = [], [], []
        q_flags, corr_ok, step_ok = [], [], []

        def trace(terminated):
            return IterationTrace(
                deltas=tuple(deltas),
                correction_norms=tuple(correction_norms),
                step_moves=tuple(step_moves),
                q_bounds=tuple(q_bounds),
                q_certified=tuple(q_flags),
                correction_bound_ok=tuple(corr_ok),
                step_bound_ok=tuple(step_ok),
                terminated=terminated,
            )

        n = 0
        while delta > tol and n < max_iter:
            corrections, a_norms = _correction(psi, core, weights, alg, angles)
            psi = angles = None     # freed before the next stack is built
            corr_norm = float(np.max(a_norms))
            phi_next = _compose(phi, corrections)
            if sets is not None:
                radius = _radius(alg, phi_next)
                if radius > sets.K_radius + 1e-9:
                    raise RangeEscape(
                        f"iterate {n + 1} left the ambient compact",
                        radius=radius, limit=sets.K_radius)
            # independent step measurement (must agree with corr_norm by left
            # invariance; both are recorded)
            step = _radius(alg, _compose(phi.conj().swapaxes(-1, -2),
                                         phi_next))
            psi = _psi_stack(phi_next, core.pairs)
            delta_next, angles = _max_distance(alg, psi)
            qb = q_bound(delta, constants)

            correction_norms.append(corr_norm)
            step_moves.append(step)
            q_bounds.append(qb)
            q_flags.append(delta_next <= qb + Q_CERT_SLACK)
            corr_ok.append(
                corr_norm <= (constants.d / constants.d_prime) * delta
                + CORRECTION_BOUND_SLACK
            )
            step_ok.append(step <= 1.0 / constants.c_d + Q_CERT_SLACK)

            deltas.append(delta_next)
            phi = phi_next
            n += 1
            # the averaging precondition of the next step (the entry check
            # put the first defect within admissible <= 1/c_l)
            if delta_next > 1.0 / constants.c_l:
                raise NonContraction(n, delta_next, trace=trace("defect_grew"))
            delta = delta_next

        return phi, trace("converged" if delta <= tol else "max_iter")
    except HaarrectError as exc:
        exc.initial_defect = initial
        raise


def verify_core_morphism(phi, core, alg, full=False):
    """Max morphism residual d(phi(kp), phi(k) phi(p)) over pair lists.

    With ``full`` the residual runs over every declared-multipliable pair of
    the parent groupoid (full morphism verification); otherwise only over
    the core pairs, which is what the averaging limit guarantees.
    """
    pairs = core.parent.products if full else core.pairs
    # d(phi(kp), phi(k) phi(p)) is the distance of psi(k, p) from identity
    return _radius(alg, _psi_stack(phi, pairs))
