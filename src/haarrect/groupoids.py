"""Finite weighted groupoid data model.

A groupoid is integer arrays only: objects are 0..n_objects-1 and arrows
0..n-1.  An action groupoid's arrow (g, x) is g * n_points + x and a pair
groupoid's arrow (j, i) is j * n + i, so every downstream trace is
reproducible.  Multiplication is one fiber-indexed table ``P``, stored as
``FiniteGroupoid.table``: row q lists the products of q with the arrows
whose target is s(q), in index order, so ``P[q, j] = q . (the j-th arrow
with target s(q))``.  An entry is -1 where the pair is not declared and in
the padding after a fiber narrower than the widest one.  A pair missing
from the table is not multipliable, which is what makes local (partially
defined) groupoids representable; a declared pair without a product, or one
with s(q) != t(p), cannot be written down.  ``FiniteGroupoid.multiply`` is
one gather through each arrow's position in its target fiber, guarded by
s(q) = t(p).  ``products`` is a derived, read-only ``(n_pairs, 3)`` array
of the declared ``(q, p, qp)`` rows in ``(q, p)`` order, and
``FiniteGroupoid.from_products`` builds a groupoid from such rows.  A core
keeps its arrows by source and its ``(k, p, kp)`` pairs in one fiber order:
arrow p, then the core fiber at t(p).  A density is one weight array over
the arrows, 0 off the core.  The constructors, cores and densities check
their axioms exhaustively, as array code, and raise naming a concrete
witness; ``validate_groupoid`` returns its witnesses instead.
"""

import numpy as np

from .errors import ActionError, CoreAxiomError, InvarianceError, Value

FIBER_SUM_TOL = 1e-14


class FiniteGroup(Value):
    """Finite group given by its multiplication table (indices 0..n-1)."""

    table: np.ndarray       # table[a, b] = index of a*b
    identity: int

    @staticmethod
    def cyclic(n):
        table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        return FiniteGroup(table=table, identity=0)

    @property
    def order(self):
        return len(self.table)


class FiniteGroupoid(Value):
    """Finite local groupoid: arrows, structure maps, product table."""

    n_objects: int
    source: np.ndarray            # (n_arrows,) object index
    target: np.ndarray
    unit_arrows: np.ndarray       # (n_objects,) unit arrow at each object
    table: np.ndarray             # (n_arrows, width) P[q, j], -1 if undeclared
    inverse: np.ndarray           # (n_arrows,) inverse arrow
    # derived, not fields: by_target, the arrows by target as (order,
    # start, width), and position, each arrow's place in its target fiber

    def _check(self):
        for name in ("source", "target", "table", "inverse"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.intp))
        n, table = self.n_arrows, self.table
        by_target = _fiber_index(self.target, self.n_objects)
        width = by_target[2]
        if table.ndim != 2 or len(table) != n \
                or table.shape[1] < width.max(initial=0):
            raise ValueError("table needs one row per arrow and one column "
                             "per slot of the widest target fiber")
        if table.size and not (-1 <= table.min() and table.max() < n):
            raise ValueError("product table names an arrow out of range")
        short = np.flatnonzero(width[self.source] < table.shape[1])
        padding = np.arange(table.shape[1]) >= width[self.source[short], None]
        if np.any(table[short][padding] != -1):
            raise ValueError("product table has an entry in a padding slot")
        if self.inverse.shape != (n,):
            raise ValueError("inverse must have one entry per arrow")
        object.__setattr__(self, "by_target", by_target)
        object.__setattr__(self, "position", _fiber_positions(*by_target))

    @classmethod
    def from_products(cls, n_objects, source, target, unit_arrows, products,
                      inverse):
        """Groupoid from ``(q, p, qp)`` rows strictly sorted by ``(q, p)``,
        one per declared pair; ValueError for unsorted or out-of-range rows
        and for a row with s(q) != t(p), which has no slot in the table."""
        n = len(source)
        rows = np.asarray(products, dtype=np.intp)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("products must be an (n_pairs, 3) array")
        if rows.size and not (0 <= rows.min() and rows.max() < n):
            raise ValueError("product table names an arrow out of range")
        q, p, qp = rows.T
        key = q * n + p
        if np.any(key[1:] <= key[:-1]):
            raise ValueError("product rows must be strictly sorted by (q, p)")
        source, target = np.asarray(source), np.asarray(target)
        bad = _first(source[q] != target[p])
        if bad is not None:
            raise ValueError(f"declared pair ({q[bad]}, {p[bad]}) has "
                             f"s(q) != t(p)")
        by_target = _fiber_index(target, n_objects)
        table = np.full((n, by_target[2].max(initial=0)), -1, dtype=np.intp)
        table[q, _fiber_positions(*by_target)[p]] = qp
        return cls(n_objects=n_objects, source=source, target=target,
                   unit_arrows=unit_arrows, table=table, inverse=inverse)

    @property
    def n_arrows(self):
        return len(self.source)

    @property
    def products(self):
        """Read-only ``(n_pairs, 3)`` rows ``(q, p, qp)`` of the declared
        pairs, in ``(q, p)`` order."""
        q, j = np.nonzero(self.table >= 0)
        rows = np.stack([q, self.partner(q, j), self.table[q, j]], axis=1)
        rows.flags.writeable = False
        return rows

    def partner(self, q, j):
        """The j-th arrow with target s(q): the p of the slot P[q, j]."""
        order, start, _ = self.by_target
        return order[start[self.source[q]] + j]

    def multiply(self, q, p):
        """Products q.p over arrays of pairs; -1 where not declared."""
        q, p = np.asarray(q, dtype=np.intp), np.asarray(p, dtype=np.intp)
        return np.where(self.source[q] == self.target[p],
                        self.table[q, self.position[p]], -1)

    def is_multipliable(self, q, p):
        return bool(self.multiply(q, p) >= 0)

    def composable_pairs(self):
        """Structurally composable pairs (s(q) = t(p)) in index order."""
        q, p = _fiber_pairs(np.arange(self.n_arrows), self.source,
                            *self.by_target)
        return zip(q.tolist(), p.tolist())


class Core(Value):
    """Core of a groupoid: left-multipliable, fiber-transitive arrow subset."""

    parent: FiniteGroupoid
    arrow_subset: tuple
    by_source: tuple             # core arrows by source (order, start, width)
    # (k, p, kp) rows, k in the core and s(k) = t(p), in (p, k) order: each
    # arrow p, then the core fiber at t(p) in fiber order
    pairs: np.ndarray

    def fiber_at(self, obj):
        order, start, width = self.by_source
        return tuple(order[start[obj]:start[obj] + width[obj]].tolist())


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def _fiber_index(obj_of, n_objects):
    """Arrows grouped by object: (order, start, width) with the fiber at z
    equal to order[start[z]:start[z] + width[z]], in index order."""
    obj_of = np.asarray(obj_of)
    width = np.bincount(obj_of, minlength=n_objects)
    return np.argsort(obj_of, kind="stable"), np.cumsum(width) - width, width


def _fiber_positions(order, start, width):
    """Position of each arrow in its fiber, from ``_fiber_index``."""
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order)) - np.repeat(start, width)
    return position


def _fiber_pairs(rows, obj_of_row, order, start, width):
    """(row, member) for each member of the fiber at each row's object,
    row-major and in fiber order."""
    counts = width[obj_of_row[rows]]
    left = np.repeat(rows, counts)
    offset = np.arange(len(left)) - np.repeat(np.cumsum(counts) - counts, counts)
    return left, order[start[obj_of_row[left]] + offset]


def _fiber_sums(values, order, start, width):
    """np.sum over each fiber, bit for bit: fibers of one width are summed
    as the rows of one block (add.reduceat would sum in sequence)."""
    sums = np.empty(len(width))
    for w in np.unique(width):
        fibers = np.flatnonzero(width == w)
        sums[fibers] = values[order[start[fibers, None] + np.arange(w)]].sum(1)
    return sums


def _first(mask):
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def build_action_groupoid(group, act):
    """Action groupoid of a finite group on the points 0..n_points-1.

    ``act`` is the integer ``(group.order, n_points)`` table with
    ``act[g, x] = g.x``; any other shape or dtype is a ValueError.  Arrows
    are the pairs (g, x) with s = x and t = g.x, indexed g * n_points + x;
    every structurally composable pair is declared.  The action's axioms
    are checked on the whole table; a failure names the first witness in
    lexicographic order.  The compatibility check and the product table run
    one group element at a time, so no temporary is larger than
    ``n_points x group order``.
    """
    act = np.asarray(act)
    if act.ndim != 2 or len(act) != group.order \
            or not np.issubdtype(act.dtype, np.integer):
        raise ValueError("act must be an integer (group order, n_points) "
                         "table")
    act = act.astype(np.intp)
    n_g, n_x = act.shape
    x = _first(act[group.identity] != np.arange(n_x))
    if x is not None:
        raise ActionError("identity does not act trivially", witness=x)
    escaped = _first(((act < 0) | (act >= n_x)).ravel())
    if escaped is not None:
        raise ActionError("action leaves the space", witness=divmod(escaped, n_x))
    # a.(b.x) against (ab).x, for all (b, x) at once
    for a in range(n_g):
        bad = _first((np.take(act[a], act) != act[group.table[a]]).ravel())
        if bad is not None:
            raise ActionError("action is not compatible with the group law",
                              witness=(a,) + divmod(bad, n_x))

    n = n_g * n_x
    arrow_g, source = np.divmod(np.arange(n), n_x)
    target = act.ravel()
    unit_arrows = group.identity * n_x + np.arange(n_x)
    inverse_g = np.argmax(group.table == group.identity, axis=1)
    inverse = inverse_g[arrow_g] * n_x + target

    # every element permutes the space, so the j-th arrow into y is (j, x)
    # with j.x = y, and (h, y) . (j, x) = (hj, x); one h is one block of rows
    x_of = np.argsort(act, axis=1).T            # [y, j]: the x with j.x = y
    table = np.empty((n, n_g), dtype=np.intp)
    for h in range(n_g):
        table[h * n_x:(h + 1) * n_x] = group.table[h] * n_x + x_of

    return FiniteGroupoid(n_objects=n_x, source=source, target=target,
                          unit_arrows=unit_arrows, table=table, inverse=inverse)


def build_pair_groupoid(n):
    """Pair groupoid on n points: one arrow (j, i) from i to j."""
    if n < 1:
        raise ValueError("a pair groupoid needs at least one point")
    target, source = np.divmod(np.arange(n * n), n)
    # the i-th arrow into j is (j, i), and (k, j) . (j, i) = (k, i)
    return FiniteGroupoid(
        n_objects=n,
        source=source,
        target=target,
        unit_arrows=np.arange(n) * (n + 1),
        table=(target * n)[:, None] + np.arange(n),
        inverse=source * n + target,
    )


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def validate_groupoid(g):
    """Exhaustive structural check: a tuple of (axiom, witness) violations,
    empty for a valid groupoid; violations are data, never exceptions.

    All checks are gated on definedness (pair in the product table),
    matching the conditional form of the local-groupoid axioms, so dropping
    pairs never makes the validator reference an undefined product.
    """
    violations = []
    n = g.n_arrows
    s, t, table = g.source, g.target, g.table
    declared = table >= 0
    q, j = np.nonzero(declared)                 # the pairs in (q, p) order
    p, qp = g.partner(q, j), table[q, j]
    for row in np.flatnonzero((s[qp] != s[p]) | (t[qp] != t[q])):
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
    # For the slot P[q, j], p is the j-th arrow into s(q); rq . p is then
    # P[rq, j] when s(rq) = s(q), and r . qp is P[r, position of qp] when
    # t(qp) = t(q) = s(r).  r runs over the source fiber at t(q), one fiber
    # position i at a time, so the temporaries stay the size of the table.
    width, flat = table.shape[1], table.ravel()
    qp_of = np.where(declared, table, 0)
    r_qp_ok = declared & (t[qp_of] == t[:, None])
    r_qp_bad = declared & ~r_qp_ok
    r_qp_slot = g.position[qp_of]
    order, start, count = _fiber_index(s, g.n_objects)
    found = []                       # (q, j, i) of each violation
    for i in range(int(count.max(initial=0))):
        has_r = count[t] > i
        r = order[np.where(has_r, start[t] + i, 0)]
        rq = np.where(has_r, table[r, g.position], -1)
        # rq = -1 reads the last entry of s and of table; ``ok`` masks it
        ok = (rq >= 0) & (s[rq] == s)
        rq_p = table[rq]
        bad = rq_p != flat[r[:, None] * width + r_qp_slot]
        bad &= r_qp_ok
        bad |= r_qp_bad
        bad &= rq_p >= 0
        bad &= ok[:, None]
        if bad.any():
            found.extend((int(q), int(j), i) for q, j in zip(*np.nonzero(bad)))
    for q, j, i in sorted(found):
        r, p = order[start[t[q]] + i], g.partner(q, j)
        violations.append(("associativity", (int(r), q, int(p))))

    return tuple(violations)


def build_core(g, arrow_subset):
    """Validate the three core axioms and build the core.

    Axioms, with their witness-bearing error ids:
      * "Lie type": the source map restricted to the subset hits every object;
      * "no escape": every pair (k, p) with k in the subset and s(k) = t(p)
        is declared multipliable;
      * "fiber invertibility": right multiplication by each core arrow is a
        bijection between the source fibers at its target and at its source.
    The (k, p, kp) rows of the no-escape check, in (p, k) order, are kept
    as the core's pairs; a witness is the first failure in (k, p) order.
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
    by_source = (subset[fiber_order], fiber_start, fiber_width)

    p, k = _fiber_pairs(np.arange(n), t, *by_source)
    kp = g.table[k, g.position[p]]          # s(k) = t(p) on every pair
    escaped = np.flatnonzero(kp < 0)
    if escaped.size:
        row = escaped[np.lexsort((p[escaped], k[escaped]))[0]]
        raise CoreAxiomError("no escape", (int(k[row]), int(p[row])))
    pairs = np.stack([k, p, kp], axis=1)

    # right multiplication by each core arrow c: the rows (k', c, k'c) with
    # k' in the fiber at t(c), in (c, k') order
    right = in_core[p]
    kk, c, prod = k[right], p[right], kp[right]
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

    return Core(parent=g, arrow_subset=tuple(subset.tolist()),
                by_source=by_source, pairs=pairs)


def attach_haar_density(core, weights="uniform"):
    """Normalize weights per fiber and verify right invariance entrywise.

    ``weights`` is "uniform" or a mapping core-arrow -> nonnegative weight.
    Returns the density: an ``(n_arrows,)`` weight array, 0 off the core,
    summing to 1 over each core source fiber.
    Right invariance: for every core arrow k and every k' in the fiber at
    t(k), the weight of k'.k equals the weight of k' to 1e-14.
    """
    order, start, width = core.by_source
    w = np.zeros(core.parent.n_arrows)
    if weights == "uniform":
        w[order] = np.repeat(1.0 / width, width)
    else:
        missing = [a for a in core.arrow_subset if a not in weights]
        if missing:
            raise ValueError(f"no weight for core arrow {missing[0]}")
        vals = np.array([float(weights[a]) for a in order.tolist()])
        ok = np.isfinite(vals) & (vals >= 0)
        w[order] = np.where(ok, vals, 0.0)
        total = _fiber_sums(w, order, start, width)
        bad = np.logical_or.reduceat(~ok, start)
        z = _first(bad | (total <= 0))
        if z is not None:
            raise ValueError(f"negative or non-finite weight in fiber at "
                             f"object {z}" if bad[z] else
                             f"fiber at object {z} has zero total weight")
        w[order] = vals / np.repeat(total, width)

    total = _fiber_sums(w, order, start, width)
    z = _first(np.abs(total - 1.0) > FIBER_SUM_TOL)
    if z is not None:
        raise InvarianceError(f"fiber sum at object {z} is {float(total[z])!r}")

    in_core = np.bincount(order, minlength=len(w)) > 0
    kp, k, moved = core.pairs[in_core[core.pairs[:, 1]]].T
    row = _first(np.abs(w[moved] - w[kp]) > FIBER_SUM_TOL)
    if row is not None:
        a, b = int(moved[row]), int(kp[row])
        raise InvarianceError(
            f"weight not preserved by right translation: "
            f"w({a}) = {float(w[a])!r} vs w({b}) = {float(w[b])!r}",
            witness=(b, int(k[row])),
        )

    return w
