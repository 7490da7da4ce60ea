"""Span tracing of shiftlab's public functions, installed from outside the program.

Every public function of the six modules is wrapped, and every module
attribute that holds it is rebound to the wrapper.  Modules import these
functions by name (``from .subspaces import orthonormalize``), so patching
only the defining module would miss most calls.

A span is ``[name, start, end, parent, scenario, info]``.  Spans are kept in
memory in call order, so a parent always precedes its children; ``info``
holds the few values the counters need (shapes of the SVD-family kernels,
corank results, generator trials).  Self time is a span's duration minus the
durations of its direct children.
"""

import functools
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "shiftlab"
LAYERS = ("models", "subspaces", "multiplicity", "tensorized", "scenarios", "cli")

NAME, START, END, PARENT, SCENARIO, INFO = range(6)


def _shape(vectors):
    """(rows, columns) of an orthonormalize() argument: a 2-d array or a vector list."""
    shape = getattr(vectors, "shape", None)
    if shape is not None and len(shape) == 2:
        return shape
    vectors = list(vectors)
    return (len(vectors[0]) if vectors else 0, len(vectors))


def _info_orthonormalize(args, kwargs, result):
    m, n = _shape(args[0] if args else kwargs["vectors"])
    return (m, n, result.dim)


def _info_opnorm(args, kwargs, result):
    return getattr(args[0], "shape", (0, 0))


def _info_principal_angles(args, kwargs, result):
    a, b = args
    return (a.ambient_dim, a.dim, b.dim)


def _info_local_corank(args, kwargs, result):
    A, L = args[0], args[1]
    n = A.n if hasattr(A, "n") else len(A)
    return (L.dim, n, result)


def _info_multiplicity(args, kwargs, result):
    return (result.trials_used, result.witness_generators is not None)


# Functions whose spans carry extra values for the counters.
SPAN_INFO = {
    "subspaces.orthonormalize": _info_orthonormalize,
    "subspaces.opnorm": _info_opnorm,
    "subspaces.principal_angles": _info_principal_angles,
    "multiplicity.local_corank": _info_local_corank,
    "multiplicity.multiplicity": _info_multiplicity,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores the original functions."""

    def __init__(self):
        self.spans = []
        self.scenario = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for obj in vars(module).values():
                if (
                    isinstance(obj, types.FunctionType)
                    and not obj.__name__.startswith("_")
                    and obj.__module__ == module.__name__
                    and obj not in originals
                ):
                    originals[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(obj) if isinstance(obj, types.FunctionType) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, obj))
        return self

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, name, fn):
        info = SPAN_INFO.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.scenario, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# Computed kernel work.  Dense textbook operation counts for the SVD family
# (Golub & Van Loan, Matrix Computations, 4th ed., Fig. 8.6.1), for complex
# input (one complex flop counted as 4 real ones).  Bytes are the complex
# input and output arrays read and written once.  These are computed from the
# shapes, not measured.
# ---------------------------------------------------------------------------

COMPLEX = 4
ITEM = 16


def _svd_values(m, n):
    m, n = max(m, n), min(m, n)
    return COMPLEX * (4 * m * n * n - 4 * n ** 3 / 3)


def _svd_thin(m, n):
    m, n = max(m, n), min(m, n)
    return COMPLEX * (6 * m * n * n + 20 * n ** 3)


def kernel_work(name, info):
    """(flops, bytes) of one call of an SVD-family kernel, from its recorded shapes."""
    if name == "subspaces.orthonormalize":
        m, n, r = info
        if n == 0:
            return 0.0, 0.0
        qr = COMPLEX * (2 * m * r * r - 2 * r ** 3 / 3)
        return _svd_thin(m, n) + qr, ITEM * (m * n + m * r)
    if name == "subspaces.opnorm":
        m, n = info
        return _svd_values(m, n), ITEM * m * n
    if name == "subspaces.principal_angles":
        # scipy.linalg.subspace_angles: orth() (a thin SVD) of each basis,
        # their cross product, the singular values of the k_a x k_b result
        m, ka, kb = info
        if ka == 0 or kb == 0:
            return 0.0, 0.0
        flops = _svd_thin(m, ka) + _svd_thin(m, kb) + COMPLEX * 2 * m * ka * kb
        return flops + _svd_values(ka, kb), ITEM * (2 * m * ka + 2 * m * kb)
    if name == "multiplicity.local_corank":
        k, n, _ = info
        return _svd_values(k, n * k), ITEM * n * k * k
    raise KeyError(name)


KERNELS = (
    "subspaces.orthonormalize",
    "subspaces.opnorm",
    "subspaces.principal_angles",
    "multiplicity.local_corank",
)


# ---------------------------------------------------------------------------
# Analysis of a span list.
# ---------------------------------------------------------------------------


def self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _outermost(spans, key):
    """For each span, whether no ancestor has the same key (so its time counts once)."""
    keys = [key(s[NAME]) for s in spans]
    out = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        while p >= 0 and keys[p] != keys[i]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def counters(spans, indices=None):
    """Deterministic work counts, keyed by name; these must repeat exactly."""
    c = Counter()
    for i in range(len(spans)) if indices is None else indices:
        s = spans[i]
        name, info = s[NAME], s[INFO]
        c[f"{name}.calls"] += 1
        if name in KERNELS:
            flops, nbytes = kernel_work(name, info)
            c[f"{name}.flops"] += flops
            c[f"{name}.bytes"] += nbytes
        if name == "multiplicity.local_corank":
            c["multiplicity.corank_hits"] += info[2] > 0
        elif name == "multiplicity.multiplicity":
            c["multiplicity.generator_trials"] += info[0]
            c["multiplicity.generator_successes"] += info[0] > 0 and info[1]
        elif name == "subspaces.orthonormalize" and s[PARENT] >= 0:
            c["multiplicity.closure_iterations"] += (
                spans[s[PARENT]][NAME] == "multiplicity.krylov_closure"
            )
    return {k: float(v) for k, v in c.items()}


def counters_by_scenario(spans):
    groups = defaultdict(list)
    for i, s in enumerate(spans):
        groups[s[SCENARIO]].append(i)
    return {key: counters(spans, indices) for key, indices in groups.items()}


# Stage boundaries inside one run_scenario span: (stage, marker, edge).  A
# stage starts at the start (or end) of the first direct child named by its
# marker at or after the previous boundary's child, and runs until the next
# boundary, so the stages partition run_scenario's duration.  The last stage
# covers the shift-lemma draws and the verdict and report assembly after them.
STAGES = (
    ("resolve_build", None, None),
    ("chain", "tensorized.f_chain", START),
    ("structure", "tensorized.verify_compression_structure", START),
    ("hypotheses", "multiplicity.multiplicity", START),
    ("wandering_gws", "tensorized.wandering_E", START),
    ("mult_S", "multiplicity.multiplicity", START),
    ("mult_F", "multiplicity.multiplicity", END),
    ("wandering_gws", "multiplicity.wandering_subspace", START),
    ("shift_lemma", "multiplicity.has_gws", END),
)
STAGE_NAMES = tuple(dict.fromkeys(name for name, _, _ in STAGES))


def stage_table(spans):
    """Seconds per stage, summed over every run_scenario span."""
    children = defaultdict(list)
    runs = []
    for i, s in enumerate(spans):
        if s[NAME] == "scenarios.run_scenario":
            runs.append(i)
        if s[PARENT] >= 0:
            children[s[PARENT]].append(s)
    table = dict.fromkeys(STAGE_NAMES, 0.0)
    for r in runs:
        run = spans[r]
        kids = children[r]
        bounds = [run[START]]
        pos = 0
        for _, marker, edge in STAGES[1:]:
            while pos < len(kids) and kids[pos][NAME] != marker:
                pos += 1
            if pos < len(kids):
                bounds.append(kids[pos][edge])
                pos += edge == END
            else:
                bounds.append(bounds[-1])
        bounds.append(run[END])
        for (stage, _, _), lo, hi in zip(STAGES, bounds, bounds[1:]):
            table[stage] += hi - lo
    return table, sum(s[END] - s[START] for s in (spans[r] for r in runs))


def function_table(spans):
    """Per function: calls, total seconds (nested calls counted once) and self seconds."""
    selfs = self_times(spans)
    outer = _outermost(spans, lambda name: name)
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s, st, top in zip(spans, selfs, outer):
        row = table[s[NAME]]
        row["calls"] += 1
        row["self_s"] += st
        if top:
            row["total_s"] += s[END] - s[START]
    return dict(table)


def module_totals(spans):
    """Per layer: seconds inside its functions, nested calls into the same layer counted once."""
    outer = _outermost(spans, lambda name: name.split(".", 1)[0])
    totals = dict.fromkeys(LAYERS, 0.0)
    for s, top in zip(spans, outer):
        if top:
            totals[s[NAME].split(".", 1)[0]] += s[END] - s[START]
    return totals
