"""Scenario generators for the three benchmark workloads.

Each generator takes the benchmark seed and returns a list of cases.  A case
is the scenario JSON object the program receives, plus the reference answer
the benchmark checks the program's report against.  The reference never comes
from shiftlab itself:

* every scenario: ``dim S = N - prod_i dim Q_i`` (dim Q_i is known from how
  the co-invariant subspace was specified);
* prefix-only scenarios on weighted shifts: the closed form
  ``dim F = sum_i (m_i - k_i) prod_{j != i} k_j`` and
  ``mult(S) = mult(F) = n``, both certified (a diagonal similarity turns any
  weighted shift into the Hardy shift and keeps coordinate subspaces);
* the four shipped scenarios: the answers their acceptance tests and the
  README state.

The benchmark seed is each generated scenario's ``seed`` field, which drives
the program's random generator trials, corank sample points and shift-lemma
draws.  ``pair-grid`` and ``cube-structure`` keep their factor kinds and sizes
fixed, so every seed asks for the same work.  ``small-sweep`` keeps its shapes
fixed and draws the factors from the seed (kinds in fixed proportions; prefix
lengths, weights, roots and matrix entries freely); its 200 scenarios average
the cost out.
"""

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

WEIGHTED_ALPHAS = (1.5, 2.5, 3.0)


@dataclass
class Case:
    name: str
    scenario: dict = None  # generated scenario JSON; None for a shipped file
    path: str = None  # shipped scenario file, relative to the checkout
    dim_S: int = None
    dim_F: int = None
    mult: int = None  # expected certified mult(S) (and mult(F) when mult_F is unset)
    mult_F: int = None
    mode: str = None


def _shift_factor(kind, m, k):
    spec = {"m": m, "coinvariant": {"prefix": k}}
    if isinstance(kind, float):
        spec["kind"] = {"weighted_bergman": kind}
    else:
        spec["kind"] = kind
    return spec


def _closed_form(sizes):
    """(dim S, dim F, mult) of a prefix scenario with slot sizes (m_i, k_i)."""
    ms = [m for m, _ in sizes]
    ks = [k for _, k in sizes]
    n = len(sizes)
    dim_F = sum((ms[i] - ks[i]) * math.prod(ks[:i] + ks[i + 1:]) for i in range(n))
    return math.prod(ms) - math.prod(ks), dim_F, n


def _prefix_case(name, slots, seed, checks=None):
    """A prefix-only scenario on weighted shifts, slots (kind, m, k), with its closed-form answer."""
    scenario = {
        "label": name,
        "factors": [_shift_factor(kind, m, k) for kind, m, k in slots],
        "seed": seed,
    }
    if checks is not None:
        scenario["checks"] = list(checks)
    dim_S, dim_F, mult = _closed_form([(m, k) for _, m, k in slots])
    return Case(name, scenario, dim_S=dim_S, dim_F=dim_F, mult=mult, mode="equality")


# (kind, m, k) per slot: the closure-heavy two-factor grid, N = 96-144.
PAIR_GRID = (
    (("hardy", 10, 5), ("hardy", 10, 5)),
    (("bergman", 10, 3), ("bergman", 10, 3)),
    (("dirichlet", 8, 4), ("dirichlet", 12, 6)),
    ((1.5, 12, 6), ("hardy", 8, 2)),
    (("hardy", 12, 6), ("bergman", 12, 6)),
    (("bergman", 9, 4), ("dirichlet", 11, 7)),
)

# Three and four factors, N = 120-256, run without the shift-lemma check.
CUBE = (
    (("hardy", 5, 2), ("bergman", 5, 2), ("dirichlet", 5, 2)),
    (("bergman", 4, 1), (3.0, 5, 2), ("dirichlet", 6, 3)),
    (("hardy", 6, 3), ("bergman", 6, 3), ("dirichlet", 6, 3)),
    (("hardy", 7, 3), ("dirichlet", 7, 2), ("bergman", 5, 4)),
    (("hardy", 4, 2),) * 4,
)
CUBE_CHECKS = (
    "projection_identities",
    "chain",
    "semi_invariance",
    "commutativity",
    "block_structure",
    "power_identity",
    "gws",
    "additive_formula",
)


def pair_grid(seed):
    return [_prefix_case(f"pair-{i}", slots, seed) for i, slots in enumerate(PAIR_GRID)]


def cube_structure(seed):
    return [_prefix_case(f"cube-{i}", slots, seed, CUBE_CHECKS) for i, slots in enumerate(CUBE)]


# Answers stated by tests/test_acceptance.py (criteria 1, 2, 7) and the README
# (quotient-zeros: certified mult(S) = 1 in inequality_only mode).
SHIPPED = (
    Case("hardy-2x2", path="scenarios/hardy-2x2.json",
         dim_S=12, dim_F=8, mult=2, mode="equality"),
    Case("mixed-3", path="scenarios/mixed-3.json",
         dim_S=26, mult=3, mode="equality"),
    Case("noncyclic-inequality", path="scenarios/noncyclic-inequality.json",
         dim_S=6, mult=2, mult_F=2, mode="inequality_only"),
    Case("quotient-zeros", path="scenarios/quotient-zeros.json",
         dim_S=6, mult=1, mode="inequality_only"),
)

# Shapes (m_1, ..., m_n) with N <= 36: every pair four times, then triples,
# 200 in all.  The shapes are the same for every seed; the seed deals out the
# factor kinds (in fixed proportions) and everything inside each factor.
SWEEP_SHAPES = (
    [(a, b) for a in range(2, 7) for b in range(2, 7)] * 4
    + [s for s in itertools.product(range(2, 7), repeat=3) if math.prod(s) <= 36] * 3
)[:200]
# named : weighted_bergman : quotient : matrix = 7 : 7 : 3 : 3.  Most quotient
# factors fail gws_restriction and a third of the matrix factors are not
# cyclic, which puts 40-50 % of the scenarios in inequality_only mode.
SWEEP_KINDS = ("named",) * 7 + ("wb",) * 7 + ("quotient",) * 3 + ("matrix",) * 3
ROOT_POOL = (0.0, 0.3, -0.5, 0.6, complex(0.2, 0.4), complex(-0.1, -0.6), complex(0.5, -0.3))


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _sweep_factor(rng, kind, m):
    """One small factor; returns (spec, dim Q, whether it is a weighted-shift prefix)."""
    if kind in ("named", "wb"):
        k = rng.randint(1, m - 1)
        if kind == "named":
            name = rng.choice(("hardy", "bergman", "dirichlet"))
        else:
            name = rng.choice(WEIGHTED_ALPHAS)
        return _shift_factor(name, m, k), k, True
    if kind == "quotient":
        # split m into root multiplicities over distinct roots of the pool
        mults = []
        while sum(mults) < m:
            mults.append(min(rng.randint(1, 2), m - sum(mults)))
        roots = rng.sample(ROOT_POOL, len(mults))
        # the ideal takes a proper, non-empty sub-multiset of p's roots
        while True:
            ideal = [(r, rng.randint(0, mu)) for r, mu in zip(roots, mults)]
            deg_q = sum(mu for _, mu in ideal)
            if 0 < deg_q < m:
                break
        spec = {
            "kind": {"quotient_roots": [[_pair(r), mu] for r, mu in zip(roots, mults)]},
            "coinvariant": {"ideal_roots": [[_pair(r), mu] for r, mu in ideal if mu]},
        }
        return spec, deg_q, False
    # strictly lower-triangular matrix; a zero on the subdiagonal splits the
    # Jordan structure and makes the factor non-cyclic
    rows = [[0.0] * m for _ in range(m)]
    for i in range(1, m):
        rows[i][i - 1] = 0.0 if rng.random() < 0.3 else round(rng.uniform(0.5, 1.5), 3)
        for j in range(i - 1):
            if rng.random() < 0.3:
                rows[i][j] = round(rng.uniform(-0.5, 0.5), 3)
    k = rng.randint(1, m - 1)
    return {"kind": {"matrix": rows}, "coinvariant": {"prefix": k}}, k, False


def small_sweep(seed):
    rng = random.Random(f"small-sweep:{seed}")
    slots = sum(len(shape) for shape in SWEEP_SHAPES)
    kinds = list(SWEEP_KINDS) * (slots // len(SWEEP_KINDS) + 1)
    rng.shuffle(kinds)
    cases = []
    for i, ms in enumerate(SWEEP_SHAPES):
        drawn = [_sweep_factor(rng, kinds.pop(), m) for m in ms]
        name = f"sweep-{i}"
        scenario = {"label": name, "factors": [d[0] for d in drawn], "seed": seed}
        if all(d[2] for d in drawn):
            dim_S, dim_F, mult = _closed_form([(m, d[1]) for m, d in zip(ms, drawn)])
            case = Case(name, scenario, dim_S=dim_S, dim_F=dim_F, mult=mult, mode="equality")
        else:
            case = Case(name, scenario, dim_S=math.prod(ms) - math.prod(d[1] for d in drawn))
        cases.append(case)
    return cases + list(SHIPPED)


# A tiny scenario that touches every stage; run before timing starts.
WARMUP = _prefix_case("warmup", (("hardy", 3, 1), ("bergman", 3, 1)), seed=0)


WORKLOADS = {
    "pair-grid": pair_grid,
    "cube-structure": cube_structure,
    "small-sweep": small_sweep,
}

# Scenario executions per requested second.  A run executes a fixed number of
# scenarios, round(seconds * rate), so that attempted and failed depend only
# on the workload, the seed and --seconds, never on the machine's speed.  The
# rates come from a 2-core x86-64 box with OpenBLAS's default 2 threads.  At
# 30 s they give 2 passes of pair-grid (about 33 s of scenarios there), 1.6
# passes of cube-structure (about 28 s) and 3 passes of small-sweep (about
# 42 s): its 50 ms scenarios drift with the host, and a third pass halved the
# spread of its figures between runs.
NOMINAL_RATE = {
    "pair-grid": 12 / 30,
    "cube-structure": 8 / 30,
    "small-sweep": 612 / 30,
}


def executions(name, n, seconds):
    """How many scenario executions a run of ``seconds`` makes: at least one pass of ``n``."""
    return max(n, round(seconds * NOMINAL_RATE[name]))


def check_report(case, report):
    """Compare a report (the CLI's JSON output) with the case's reference.

    Returns (mismatches, problems): mismatches disagree with the reference
    answer; problems are failures the program reports itself (a check that
    did not pass, an uncertified multiplicity).
    """
    mismatches, problems = [], []
    ms, mf = report["multiplicities"]["S"], report["multiplicities"]["F"]

    def expect(what, got, want):
        if want is not None and got != want:
            mismatches.append(f"{what}: got {got}, expected {want}")

    expect("dim S", report["dim_S"], case.dim_S)
    expect("dim F", report["dim_F"], case.dim_F)
    expect("mode", report["mode"], case.mode)
    if case.mult is not None:
        expect("mult(S)", (ms["upper"], ms["certified"]), (case.mult, True))
        if case.mode == "equality" or case.mult_F is not None:
            expect("mult(F)", (mf["upper"], mf["certified"]), (case.mult_F or case.mult, True))
    if not report["passed"]:
        failed = [k for k, v in report["verdicts"].items() if v["status"] != "pass"]
        problems.append("failed checks: " + ", ".join(failed))
    for which, res in (("S", ms), ("F", mf)):
        if not res["certified"]:
            problems.append(f"mult({which}) uncertified [{res['lower']}, {res['upper']}]")
    return mismatches, problems


def shipped_exists(root):
    return all((Path(root) / c.path).is_file() for c in SHIPPED)
