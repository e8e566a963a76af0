"""Spans and work counts recorded around calls into haarrect's layers.

The benchmark never edits the library.  It rebinds names in the layer
modules' namespaces for the length of one sample, so that a call which
crosses from one layer into another goes through a wrapper that records a
span (trace id, span id, parent span id, name, start, end).  A layer is one
module of the package; a call "into" a layer is a call through a name that
another layer imported from it.  A few functions that the per-layer
metrics name are called from inside their own module; they are spanned on
those calls too.

Spans are kept in memory, as tuples, until the benchmark writes them out.
"""

import functools
import inspect
import itertools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("groups", "groupoids", "rectifier", "holo", "harness", "cli")

# Spanned also when the caller is in the same module: the per-layer metrics
# name them and their main callers live next to them.
NAMED_INTRA = frozenset({
    "rectifier.defect",
    "rectifier.average_correction",
    "holo.real_slice_consistency",
    "holo.cr_residual",
    "harness.generate_exact_morphism",
    "harness.perturb_morphism",
})

# Spanned in the untraced run as well: the start of the correction
# iteration and the end of the holo model build close the set-up phase.
PROBES = frozenset({"rectifier.iterate", "holo.build_complexified_model"})

# The per-matrix principal log; every call is one log evaluation.
LOG_FUNCS = frozenset({"groups._log_coords_single"})

# span tuple fields
TRACE, SPAN, PARENT, NAME, START, END = range(6)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def core_pair_count(core):
    """Pairs (k, p) with k in the core and s(k) = t(p)."""
    g = core.parent
    into = np.bincount(np.asarray(g.target), minlength=g.n_objects)
    sources = np.asarray(g.source)[np.asarray(core.arrow_subset, dtype=int)]
    return int(into[sources].sum())


def compose_entry_count(g):
    """Entries of the groupoid's multiplication table.

    Without a ``compose_table`` dict the multipliable pairs are counted
    through the public methods, so the count survives a change of the
    table's representation.
    """
    table = getattr(g, "compose_table", None)
    if table is not None:
        return len(table)
    return sum(1 for q, p in g.composable_pairs() if g.is_multipliable(q, p))


def _count_groupoid(counts, args, kwargs, g):
    counts["groupoids.arrows"] += g.n_arrows
    counts["groupoids.compose_entries"] += compose_entry_count(g)


def _count_core(counts, args, kwargs, core):
    counts["groupoids.core_pairs"] += core_pair_count(core)
    fiber = max(len(core.fiber_at(z)) for z in range(core.parent.n_objects))
    counts["groupoids.fiber_size"] = max(counts["groupoids.fiber_size"], fiber)


def _count_defect(counts, args, kwargs, result):
    pairs = _arg(args, kwargs, 3, "pairs")
    n = len(pairs) if pairs is not None else core_pair_count(args[1])
    counts["rectifier.psi_evals"] += n


def _count_correction(counts, args, kwargs, result):
    counts["rectifier.psi_evals"] += core_pair_count(args[1])


def _count_verify(counts, args, kwargs, result):
    core = args[1]
    if _arg(args, kwargs, 3, "full", False):
        counts["rectifier.psi_evals"] += compose_entry_count(core.parent)
    else:
        counts["rectifier.psi_evals"] += core_pair_count(core)


def _count_steps(counts, args, kwargs, result):
    counts["rectifier.steps"] += result[1].iterations


def _count_model(counts, args, kwargs, model):
    counts["holo.grid_nodes"] += int(np.prod([len(a) for a in model.grid_axes]))
    counts["holo.lattice_points"] += len(model.lattice_radii) * model.n_theta


def _count_log(counts, args, kwargs, result):
    counts["groups.log_evals"] += 1


COUNTERS = {
    "groupoids.build_pair_groupoid": _count_groupoid,
    "groupoids.build_action_groupoid": _count_groupoid,
    "groupoids.build_core": _count_core,
    "rectifier.defect": _count_defect,
    "rectifier.average_correction": _count_correction,
    "rectifier.verify_core_morphism": _count_verify,
    "rectifier.iterate": _count_steps,
    "holo.build_complexified_model": _count_model,
    "groups._log_coords_single": _count_log,
}

# Work counts reported by the traced run; all of them repeat exactly.
COUNT_NAMES = (
    "groupoids.arrows", "groupoids.core_pairs", "groupoids.fiber_size",
    "groupoids.compose_entries", "rectifier.steps", "rectifier.psi_evals",
    "groups.log_evals", "holo.grid_nodes", "holo.lattice_points",
    "holo.function_evals",
)


class Recorder:
    """Collects spans and per-trace work counts in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}            # trace id -> Counter
        self._stack = []
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self.trace_id = 0

    def begin_trace(self):
        self.trace_id = next(self._traces)
        self.counts[self.trace_id] = Counter()
        return self.trace_id

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self.trace_id, sid, parent, name, start, end))

    def wrap(self, fn, qual, span, counter=None, proxy=False):
        counts = lambda: self.counts[self.trace_id]
        # verify_core_morphism(full=True) checks every multipliable pair, a
        # different job: it gets its own name
        full_name = (qual + "_full" if qual == "rectifier.verify_core_morphism"
                     else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if proxy and args and callable(args[0]):
                args = (_counting_callable(args[0], counts()),) + args[1:]
            if span:
                name = qual
                if full_name and _arg(args, kwargs, 3, "full", False):
                    name = full_name
                result = self.call(name, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(counts(), args, kwargs, result)
            return result

        return wrapper


def _counting_callable(f, counts):
    """Proxy for a user function handed to holo: counts point evaluations."""
    def counted(z1, z2):
        counts["holo.function_evals"] += int(np.broadcast(z1, z2).size)
        return f(z1, z2)
    return counted


def install(recorder, modules, full):
    """Rebind layer functions to span/count wrappers; returns an undo list.

    ``modules`` maps a layer name to its module.  With ``full`` every call
    that crosses a layer boundary is spanned and the work counters run;
    otherwise only the set-up probes are spanned.
    """
    undo = []
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj):
                continue
            package, _, owner = obj.__module__.rpartition(".")
            if package != "haarrect" or owner not in modules:
                continue
            qual = f"{owner}.{obj.__name__}"
            cross = owner != layer
            span = (cross or qual in NAMED_INTRA) if full else qual in PROBES
            # log evaluations are counted on every call, spanned only across
            # layers
            if not (span or (full and qual in LOG_FUNCS)):
                continue
            counter = COUNTERS.get(qual) if full else None
            proxy = full and cross and owner == "holo"
            setattr(mod, attr, recorder.wrap(obj, qual, span, counter, proxy))
            undo.append((mod, attr, obj))
    return undo


def uninstall(undo):
    for mod, attr, obj in reversed(undo):
        setattr(mod, attr, obj)


def self_times(spans):
    """Span id -> own duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap; self times of a trace then sum to its root's duration.
    """
    child = defaultdict(float)
    for s in spans:
        if s[PARENT]:
            child[s[PARENT]] += s[END] - s[START]
    return {s[SPAN]: (s[END] - s[START]) - child[s[SPAN]] for s in spans}


def layer_of(name):
    return name.partition(".")[0]
