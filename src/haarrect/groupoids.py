"""Finite weighted groupoid data model.

Arrows are indexed 0..n-1 in lexicographic order of their constructor
labels, so every downstream trace is reproducible.  Multiplication is one
product table: an ``(n_pairs, 3)`` int array of ``(q, p, qp)`` rows, one
row per declared-multipliable pair, sorted by ``(q, p)``.  A pair missing
from the table is not multipliable, which is what makes local (partially
defined) groupoids representable; a declared pair without a product cannot
be written down.  ``FiniteGroupoid.multiply`` looks products up for whole
arrays of pairs at once (a binary search on the key ``q * n_arrows + p``),
and the constructors, validators and cores are array code over it.  Cores
and per-fiber normalized right-invariant weights follow, each with
exhaustive axiom validators that return concrete witnesses on failure.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ActionError, CoreAxiomError, InvarianceError

FIBER_SUM_TOL = 1e-14


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group given by its multiplication table (indices 0..n-1)."""

    element_labels: tuple
    table: np.ndarray       # table[a, b] = index of a*b
    identity: int

    @staticmethod
    def cyclic(n):
        labels = tuple(f"g{k}" for k in range(n))
        table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        return FiniteGroup(element_labels=labels, table=table, identity=0)

    @property
    def order(self):
        return len(self.element_labels)

    def inverse(self, a):
        return int(np.nonzero(self.table[a] == self.identity)[0][0])


@dataclass(frozen=True)
class FiniteGroupoid:
    """Finite local groupoid: arrows, structure maps, product table."""

    object_labels: tuple
    arrow_labels: tuple
    source: np.ndarray            # (n_arrows,) object index
    target: np.ndarray
    unit_arrows: np.ndarray       # (n_objects,) unit arrow at each object
    products: np.ndarray          # (n_pairs, 3) rows (q, p, qp), sorted by (q, p)
    inverse: np.ndarray           # (n_arrows,) inverse arrow
    _keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.products, dtype=np.intp)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("products must be an (n_pairs, 3) array")
        if rows.size and not (0 <= rows[:, :2].min()
                              and rows[:, :2].max() < self.n_arrows):
            raise ValueError("product table names an arrow out of range")
        keys = rows[:, 0] * self.n_arrows + rows[:, 1]
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("product rows must be strictly sorted by (q, p)")
        if np.shape(self.inverse) != (self.n_arrows,):
            raise ValueError("inverse must have one entry per arrow")
        object.__setattr__(self, "products", rows)
        object.__setattr__(self, "inverse", np.asarray(self.inverse, dtype=np.intp))
        object.__setattr__(self, "_keys", keys)

    @property
    def n_objects(self):
        return len(self.object_labels)

    @property
    def n_arrows(self):
        return len(self.arrow_labels)

    def multiply(self, q, p):
        """Products q.p over arrays of pairs; -1 where not declared."""
        key = (np.asarray(q, dtype=np.intp) * self.n_arrows
               + np.asarray(p, dtype=np.intp))
        if not len(self._keys):
            return np.full(key.shape, -1, dtype=np.intp)
        row = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
        return np.where(self._keys[row] == key, self.products[row, 2], -1)

    def is_multipliable(self, q, p):
        return bool(self.multiply(q, p) >= 0)

    def compose(self, q, p):
        qp = int(self.multiply(q, p))
        if qp < 0:
            raise KeyError(f"pair ({q}, {p}) is not declared multipliable")
        return qp

    def composable_pairs(self):
        """Structurally composable pairs (s(q) = t(p)) in index order."""
        q, p = _fiber_pairs(np.arange(self.n_arrows), self.source,
                            *_fiber_index(self.target, self.n_objects))
        return zip(q.tolist(), p.tolist())

    def arrows_by_source(self):
        return _fiber_lists(self.source, self.n_objects)

    def arrows_by_target(self):
        return _fiber_lists(self.target, self.n_objects)


@dataclass(frozen=True)
class Core:
    """Core of a groupoid: left-multipliable, fiber-transitive arrow subset."""

    parent: FiniteGroupoid
    arrow_subset: tuple
    s_fibers: dict               # object -> tuple of core arrows with that source
    pairs: np.ndarray            # (k, p, kp) rows, k in the core, s(k) = t(p)
    s_proper: bool = True        # finite fibers, always proper in this model

    def fiber_at(self, obj):
        return self.s_fibers[obj]


@dataclass(frozen=True)
class HaarDensity:
    """Per-fiber normalized right-invariant weights on a core."""

    core: Core
    weights: dict                # core arrow -> weight
    arrow_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # (n_arrows,) weights, 0 off the core
        dense = np.zeros(self.core.parent.n_arrows)
        dense[list(self.weights)] = list(self.weights.values())
        object.__setattr__(self, "arrow_weights", dense)

    def weight(self, arrow):
        return self.weights[arrow]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.passed != (len(self.violations) == 0):
            raise ValueError("passed flag must mirror the violation list")


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def _fiber_index(obj_of, n_objects):
    """Arrows grouped by object: (order, start, width) with the fiber at z
    equal to order[start[z]:start[z] + width[z]], in index order."""
    obj_of = np.asarray(obj_of)
    width = np.bincount(obj_of, minlength=n_objects)
    return np.argsort(obj_of, kind="stable"), np.cumsum(width) - width, width


def _fiber_pairs(rows, obj_of_row, order, start, width):
    """(row, member) for each member of the fiber at each row's object,
    row-major and in fiber order."""
    counts = width[obj_of_row[rows]]
    left = np.repeat(rows, counts)
    offset = np.arange(len(left)) - np.repeat(np.cumsum(counts) - counts, counts)
    return left, order[start[obj_of_row[left]] + offset]


def _fiber_lists(obj_of, n_objects):
    order, start, width = _fiber_index(obj_of, n_objects)
    return [order[s:s + w].tolist() for s, w in zip(start, width)]


def _right_translations(pairs, in_core):
    """Right multiplication by each core arrow c, from a core's (k, p, kp)
    rows: the rows (k', c, k'c) with k' in the fiber at t(c), in (c, k')
    order, as three columns."""
    right = pairs[in_core[pairs[:, 1]]]
    return right[np.argsort(right[:, 1], kind="stable")].T


def _first(mask):
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def build_action_groupoid(group, space, action):
    """Action groupoid of a finite group on a finite set.

    ``space`` is a sequence of object labels and ``action(g, x)`` maps a
    group element index and a space index to a space index.  Arrows are the
    pairs (g, x) with s = x and t = g.x, ordered g-major; every structurally
    composable pair is declared.  The action is tabulated once and its axioms
    are checked on the whole table; a failure names the first witness in
    lexicographic order.
    """
    space = tuple(space)
    n_g, n_x = group.order, len(space)
    act = np.array([[action(g, x) for x in range(n_x)] for g in range(n_g)],
                   dtype=np.intp).reshape(n_g, n_x)
    x = _first(act[group.identity] != np.arange(n_x))
    if x is not None:
        raise ActionError("identity does not act trivially", witness=x)
    escaped = _first(((act < 0) | (act >= n_x)).ravel())
    if escaped is not None:
        raise ActionError("action leaves the space", witness=divmod(escaped, n_x))
    # [a, b, x]: a.(b.x) against (ab).x
    bad = _first((act[:, act] != act[group.table]).ravel())
    if bad is not None:
        raise ActionError("action is not compatible with the group law",
                          witness=tuple(int(i) for i in
                                        np.unravel_index(bad, (n_g, n_g, n_x))))

    n = n_g * n_x
    arrow_labels = tuple((group.element_labels[g], space[x])
                         for g in range(n_g) for x in range(n_x))
    arrow_g, source = np.divmod(np.arange(n), n_x)
    target = act.ravel()
    unit_arrows = group.identity * n_x + np.arange(n_x)
    inverse_g = np.argmax(group.table == group.identity, axis=1)
    inverse = inverse_g[arrow_g] * n_x + target

    # (h, g.x) . (g, x) = (hg, x): for each h, the partners p = (g, x) run
    # over the arrows by target, so the rows come out sorted by (q, p)
    by_target = np.argsort(target, kind="stable")
    h = np.arange(n_g)[:, None]
    products = np.empty((n_g, n, 3), dtype=np.intp)
    products[:, :, 0] = h * n_x + target[by_target]
    products[:, :, 1] = by_target
    products[:, :, 2] = (group.table[h, arrow_g[by_target]] * n_x
                         + source[by_target])

    return FiniteGroupoid(
        object_labels=space,
        arrow_labels=arrow_labels,
        source=source,
        target=target,
        unit_arrows=unit_arrows,
        products=products.reshape(-1, 3),
        inverse=inverse,
    )


def build_pair_groupoid(space):
    """Pair groupoid on a finite set: one arrow (j, i) from i to j."""
    space = tuple(space)
    n = len(space)
    if n < 1:
        raise ValueError("space must be nonempty")
    arrow_labels = tuple((space[j], space[i]) for j in range(n) for i in range(n))
    target, source = np.divmod(np.arange(n * n), n)
    # (k, j) . (j, i) = (k, i), rows in (k, j, i) order, i.e. by (q, p)
    k, j, i = np.indices((n, n, n)).reshape(3, -1)
    products = np.stack([k * n + j, j * n + i, k * n + i], axis=1)
    return FiniteGroupoid(
        object_labels=space,
        arrow_labels=arrow_labels,
        source=source,
        target=target,
        unit_arrows=np.arange(n) * (n + 1),
        products=products,
        inverse=source * n + target,
    )


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def validate_groupoid(g):
    """Exhaustive structural check; violations are data, never exceptions.

    All checks are gated on definedness (pair in the product table),
    matching the conditional form of the local-groupoid axioms, so dropping
    rows never makes the validator reference an undefined product.
    """
    violations = []
    n = g.n_arrows
    s, t = np.asarray(g.source), np.asarray(g.target)
    q, p, qp = g.products.T

    structural = s[q] == t[p]
    in_range = (qp >= 0) & (qp < n)
    safe_qp = np.where(in_range, qp, 0)
    shape_ok = in_range & (s[safe_qp] == s[p]) & (t[safe_qp] == t[q])
    for row in np.flatnonzero(~structural | ~shape_ok):
        if not structural[row]:
            violations.append(("source-target", (int(q[row]), int(p[row]))))
        else:
            violations.append(("source-target",
                               (int(q[row]), int(p[row]), int(qp[row]))))

    units = np.asarray(g.unit_arrows)
    for z in np.flatnonzero((s[units] != np.arange(g.n_objects))
                            | (t[units] != np.arange(g.n_objects))):
        violations.append(("unit", int(z)))
    arrows = np.arange(n)
    ur, ul = units[s], units[t]
    times_ur, ul_times = g.multiply(arrows, ur), g.multiply(ul, arrows)
    bad_right = (times_ur >= 0) & (times_ur != arrows)
    bad_left = (ul_times >= 0) & (ul_times != arrows)
    for a in np.flatnonzero(bad_right | bad_left):
        if bad_right[a]:
            violations.append(("unit", (int(a), int(ur[a]))))
        if bad_left[a]:
            violations.append(("unit", (int(ul[a]), int(a))))

    inv = g.inverse
    inv_ok = (inv >= 0) & (inv < n)
    safe_inv = np.where(inv_ok, inv, 0)
    inv_ok &= (s[safe_inv] == t) & (t[safe_inv] == s)
    after, before = g.multiply(safe_inv, arrows), g.multiply(arrows, safe_inv)
    bad_after = inv_ok & (after >= 0) & (after != ur)
    bad_before = inv_ok & (before >= 0) & (before != ul)
    for a in np.flatnonzero(~inv_ok | bad_after | bad_before):
        if not inv_ok[a]:
            violations.append(("inverse", int(a)))
            continue
        if bad_after[a]:
            violations.append(("inverse", (int(inv[a]), int(a))))
        if bad_before[a]:
            violations.append(("inverse", (int(a), int(inv[a]))))

    # local associativity: if (r,q), (q,p) and (rq, p) are all declared,
    # then (r, qp) must be declared and the two triple products must agree.
    # r runs over the source fiber at t(q), one fiber position j at a time;
    # r.q depends on q alone, so it is looked up once per arrow.
    rows = np.flatnonzero(structural & in_range)
    order, start, width = _fiber_index(s, g.n_objects)
    found = []                       # (row, position) of each violation
    for j in range(int(width.max(initial=0))):
        has_r = width[t] > j
        r_of = order[np.where(has_r, start[t] + j, 0)]
        rq_of = np.where(has_r, g.multiply(r_of, arrows), -1)
        live = rows[has_r[q[rows]]]
        r, rq = r_of[q[live]], rq_of[q[live]]
        rq_p = g.multiply(np.where(rq >= 0, rq, 0), p[live])
        r_qp = g.multiply(r, qp[live])
        bad = (rq >= 0) & (rq_p >= 0) & ((r_qp < 0) | (rq_p != r_qp))
        found.extend((int(row), j) for row in live[bad])
    for row, j in sorted(found):
        r = order[start[t[q[row]]] + j]
        violations.append(("associativity", (int(r), int(q[row]), int(p[row]))))

    return ValidationReport(passed=not violations, violations=tuple(violations))


def build_core(g, arrow_subset):
    """Validate the three core axioms and build the core.

    Axioms, with their witness-bearing error ids:
      * "Lie type": the source map restricted to the subset hits every object;
      * "no escape": every pair (k, p) with k in the subset and s(k) = t(p)
        is declared multipliable;
      * "fiber invertibility": right multiplication by each core arrow is a
        bijection between the source fibers at its target and at its source.
    The (k, p, kp) rows of the no-escape check, in (k, p) order, are kept
    as the core's pairs.
    """
    subset = np.array(sorted(set(arrow_subset)), dtype=np.intp)
    if not subset.size:
        raise ValueError("arrow_subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= g.n_arrows:
        bad = subset[0] if subset[0] < 0 else subset[-1]
        raise ValueError(f"{bad} is not an arrow of the groupoid")
    n = g.n_arrows
    s, t = np.asarray(g.source), np.asarray(g.target)
    in_core = np.zeros(n, dtype=bool)
    in_core[subset] = True

    fiber_order, fiber_start, fiber_width = _fiber_index(s[subset], g.n_objects)
    z = _first(fiber_width == 0)
    if z is not None:
        raise CoreAxiomError("Lie type", z)
    fibers = {z: tuple(subset[fiber_order[a:a + w]].tolist())
              for z, (a, w) in enumerate(zip(fiber_start, fiber_width))}

    k, p = _fiber_pairs(subset, s, *_fiber_index(t, g.n_objects))
    kp = g.multiply(k, p)
    row = _first(kp < 0)
    if row is not None:
        raise CoreAxiomError("no escape", (int(k[row]), int(p[row])))
    pairs = np.stack([k, p, kp], axis=1)

    kk, c, prod = _right_translations(pairs, in_core)
    escaped = _first(~in_core[prod])
    # c is a bijection of fibers iff its images are distinct and the two
    # fibers are equally wide
    key = np.sort(c * n + prod)
    repeated = key[1:][key[1:] == key[:-1]] // n
    unequal = subset[fiber_width[t[subset]] != fiber_width[s[subset]]]
    not_bijective = np.concatenate([repeated, unequal])
    first_c = int(not_bijective.min()) if not_bijective.size else n
    if escaped is not None and c[escaped] <= first_c:
        raise CoreAxiomError("fiber invertibility",
                             (int(kk[escaped]), int(c[escaped])))
    if first_c < n:
        raise CoreAxiomError("fiber invertibility", first_c)

    return Core(parent=g, arrow_subset=tuple(subset.tolist()), s_fibers=fibers,
                pairs=pairs)


def attach_haar_density(core, weights="uniform"):
    """Normalize weights per fiber and verify right invariance entrywise.

    ``weights`` is "uniform" or a mapping core-arrow -> nonnegative weight.
    Right invariance: for every core arrow k and every k' in the fiber at
    t(k), the weight of k'.k equals the weight of k' to 1e-14.
    """
    g = core.parent
    if weights == "uniform":
        w = {}
        for z, fiber in core.s_fibers.items():
            for a in fiber:
                w[a] = 1.0 / len(fiber)
    else:
        missing = [a for a in core.arrow_subset if a not in weights]
        if missing:
            raise ValueError(f"no weight for core arrow {missing[0]}")
        w = {}
        for z, fiber in core.s_fibers.items():
            vals = np.array([float(weights[a]) for a in fiber])
            if not np.all(np.isfinite(vals) & (vals >= 0)):
                raise ValueError(f"negative or non-finite weight in fiber "
                                 f"at object {z}")
            total = vals.sum()
            if total <= 0:
                raise ValueError(f"fiber at object {z} has zero total weight")
            for a, v in zip(fiber, vals / total):
                w[a] = v

    for z, fiber in core.s_fibers.items():
        total = float(np.sum([w[a] for a in fiber]))
        if abs(total - 1.0) > FIBER_SUM_TOL:
            raise InvarianceError(f"fiber sum at object {z} is {total!r}")

    density = HaarDensity(core=core, weights=w)
    w_of = density.arrow_weights
    in_core = np.zeros(g.n_arrows, dtype=bool)
    in_core[list(core.arrow_subset)] = True
    kp, k, moved = _right_translations(core.pairs, in_core)
    row = _first(np.abs(w_of[moved] - w_of[kp]) > FIBER_SUM_TOL)
    if row is not None:
        a, b = int(moved[row]), int(kp[row])
        raise InvarianceError(
            f"weight not preserved by right translation: "
            f"w({a}) = {w[a]!r} vs w({b}) = {w[b]!r}",
            witness=(b, int(k[row])),
        )

    return density
