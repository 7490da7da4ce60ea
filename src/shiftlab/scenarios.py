"""Scenario runner: declarative JSON descriptions in, verified reports out.

A scenario lists tensor factors (named weighted-shift models, quotient
models, custom weights, or explicit matrices) each with a co-invariant
subspace, plus tolerances and a list of named checks.  Running a scenario
builds the tensor system, the joint invariant subspace S with its nested
chain down to F, certifies multiplicities, and evaluates every requested
check exactly once, recording pass/fail verdicts and worst-case residuals.

When every factor satisfies the hypotheses of the additive multiplicity
formula (cyclic factor, wandering subspace of the restriction generates,
a usable adjoint eigenvector in the co-invariant part, and a zero-based
factor: Q_i contains a kernel vector of T_i^*, so that S_i (-) T_i S_i is
based at 0), each read from the factor's slot kernels (``TensorFactor.kernels``)
at the points of its spectrum (given roots, a triangular diagonal, or eigenvalues
that their kernels certify), the run certifies

    mult(S) = mult(F) = sum_i dim(S_i (-) T_i S_i).

Otherwise the run downgrades to ``inequality_only`` mode: it still verifies
mult(S) >= mult(F) and flags which hypothesis failed, but claims no equality.
"""

import copy
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, EigenError, ShiftlabError
from .models import (
    QuotientModel,
    SpaceKind,
    complex_to_pair,
    ideal_subspace,
    load_matrix,
    make_quotient,
    make_shift,
    matrix_from_json,
)
from .multiplicity import _ranked, multiplicity
from .slots import shift_bound, slot_coranks
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    complement_within,
    orthonormalize,
)
from .tensorized import (
    build_system,
    f_chain,
    tensor_factor,
    verify_compression_structure,
    wandering_E,
)

ALL_CHECKS = (
    "projection_identities",
    "chain",
    "semi_invariance",
    "commutativity",
    "block_structure",
    "power_identity",
    "shift_lemma",
    "gws",
    "additive_formula",
)

_NAMED_KINDS = {
    "hardy": SpaceKind.hardy,
    "bergman": SpaceKind.bergman,
    "dirichlet": SpaceKind.dirichlet,
}


def _real(value, what):
    """A JSON number (not a bool) as a float; ConfigError otherwise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _positive(value, what):
    """A finite positive number (not a bool) as a float; ConfigError otherwise.

    The one rule for tolerances, from scenario JSON and the command line alike.
    """
    v = _real(value, what)
    if not math.isfinite(v) or v <= 0:
        raise ConfigError(f"{what} must be a finite positive number, got {value!r}")
    return v


def _count(value, what):
    """A non-negative integer (not a bool); ConfigError otherwise.

    The one rule for trial counts and seeds, from scenario JSON and the
    command line alike.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {value!r}")
    return value


_FACTOR_KEYS = ("kind", "m", "coinvariant", "label")


def _resolve_kind(spec, base_dir):
    """Return (operator, model-or-None, description) for a factor spec.

    ``m``, required by the named and weighted_bergman kinds and optional for
    the others, must be an integer equal to the operator's size.
    """
    unknown = set(spec) - set(_FACTOR_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown factor keys {sorted(unknown)}; known keys are {list(_FACTOR_KEYS)}"
        )
    T, model, desc = _build_kind(spec.get("kind"), spec.get("m"), base_dir)
    m = spec.get("m", T.shape[0])
    if not isinstance(m, int) or isinstance(m, bool) or m != T.shape[0]:
        raise ConfigError(f"factor {desc} has size {T.shape[0]}, but 'm' is {m!r}")
    return T, model, desc


def _build_kind(kind, m, base_dir):
    """The factor's operator from its 'kind'; ``m`` sizes the shift kinds that need it."""
    if isinstance(kind, str):
        if kind not in _NAMED_KINDS:
            raise ConfigError(
                f"unknown factor kind {kind!r}; named kinds are {sorted(_NAMED_KINDS)}"
            )
        model = make_shift(_NAMED_KINDS[kind](), m)
        return model.operator, model, model.label()
    if isinstance(kind, dict) and len(kind) == 1:
        (key, value), = kind.items()
        if key == "weighted_bergman":
            model = make_shift(SpaceKind.weighted_bergman(_real(value, "weighted_bergman")), m)
            return model.operator, model, model.label()
        if key == "custom_weights":
            if not isinstance(value, list) or not value:
                raise ConfigError("custom_weights must be a non-empty list")
            weights = [_real(w, "custom_weights entry") for w in value]
            model = make_shift(SpaceKind.custom(weights), len(weights) + 1)
            return model.operator, model, model.label()
        if key == "quotient_roots":
            model = make_quotient(value)
            return model.operator, model, model.label()
        if key == "matrix":
            T = matrix_from_json(value)
            return T, None, f"matrix:{T.shape[0]}"
        if key == "matrix_file":
            T = load_matrix(Path(base_dir) / value)
            return T, None, f"matrix:{T.shape[0]}"
        raise ConfigError(f"unknown factor kind key {key!r}")
    raise ConfigError(f"cannot parse factor kind {kind!r}")


def _resolve_coinvariant(spec, T, model, tol, base_dir):
    """Return the co-invariant subspace Q for a factor spec."""
    co = spec.get("coinvariant")
    if not isinstance(co, dict) or len(co) != 1:
        raise ConfigError(
            "each factor needs a 'coinvariant' object with exactly one of "
            "'prefix', 'ideal_roots', 'basis', 'basis_file'"
        )
    (key, value), = co.items()
    m = T.shape[0]
    if key == "prefix":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"prefix length must be an integer, got {value!r}")
        from .models import prefix_coinvariant

        return prefix_coinvariant(m, value)
    if key == "ideal_roots":
        if not isinstance(model, QuotientModel):
            raise ConfigError("ideal_roots only applies to quotient_roots factors")
        S = ideal_subspace(model, value, tol=tol)
        return complement_within(Subspace.full(m, tol=tol), S)
    if key == "basis":
        cols = matrix_from_json(value)
        return orthonormalize(cols, tol=tol, ambient_dim=m)
    if key == "basis_file":
        cols = load_matrix(Path(base_dir) / value)
        return orthonormalize(cols, tol=tol, ambient_dim=m)
    raise ConfigError(f"unknown coinvariant key {key!r}")


def resolve_factor(spec, tol, base_dir="."):
    """Turn one JSON factor spec into a validated TensorFactor."""
    if not isinstance(spec, dict):
        raise ConfigError(f"factor spec must be an object, got {type(spec).__name__}")
    try:
        T, model, desc = _resolve_kind(spec, base_dir)
        label = spec.get("label", "")
        if not isinstance(label, str):
            raise ConfigError(f"factor label must be a string, got {label!r}")
        label = label or desc
        Q = _resolve_coinvariant(spec, T, model, tol, base_dir)
        # a companion matrix's eigvals split repeated roots; the roots are exact
        spectrum = [lam for lam, _ in model.roots] if isinstance(model, QuotientModel) else None
        return tensor_factor(T, Q, tol=tol, label=label, spectrum=spectrum)
    except ConfigError:
        raise
    except ShiftlabError as exc:
        raise ConfigError(f"invalid factor spec: {exc}") from exc


@dataclass
class Scenario:
    """A parsed scenario: factor specs plus run settings."""

    factor_specs: list
    label: str = ""
    tol: float = DEFAULT_TOL
    check_tol: float = 1e-9
    trials: int = 64
    seed: int = 42
    checks: tuple = ALL_CHECKS
    base_dir: str = "."


def scenario_from_json(obj, base_dir="."):
    if not isinstance(obj, dict):
        raise ConfigError("scenario must be a JSON object")
    known = {"factors", "label", "tol", "check_tol", "trials", "seed", "checks"}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    factors = obj.get("factors")
    if not isinstance(factors, list) or len(factors) < 2:
        raise ConfigError("scenario needs a 'factors' list with at least two entries")
    checks = obj.get("checks", list(ALL_CHECKS))
    if not isinstance(checks, list) or not checks:
        raise ConfigError("'checks' must be a non-empty list of check names")
    bad = [c for c in checks if c not in ALL_CHECKS]
    if bad:
        raise ConfigError(f"unknown checks {bad}; known checks are {list(ALL_CHECKS)}")
    ordered = list(dict.fromkeys(checks))

    return Scenario(
        factor_specs=factors,
        label=str(obj.get("label", "")),
        tol=_positive(obj.get("tol", DEFAULT_TOL), "'tol'"),
        check_tol=_positive(obj.get("check_tol", 1e-9), "'check_tol'"),
        trials=_count(obj.get("trials", 64), "'trials'"),
        seed=_count(obj.get("seed", 42), "'seed'"),
        checks=tuple(ordered),
        base_dir=str(base_dir),
    )


def load_scenario(path):
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
    scn = scenario_from_json(obj, base_dir=path.parent)
    if not scn.label:
        scn.label = path.stem
    return scn


def _mult_to_json(res):
    return {
        "lower": int(res.lower),
        "upper": int(res.upper),
        "certified": bool(res.certified),
        "witness_point": (
            None if res.witness_point is None
            else [complex_to_pair(z) for z in res.witness_point]
        ),
        "trials_used": int(res.trials_used),
    }


@dataclass
class Report:
    """Everything a scenario run establishes, JSON-serializable via to_json()."""

    label: str
    dims: list
    factor_labels: list
    dim_S: int
    dim_F: int
    chain_dims: list
    x_ranks: list
    wandering_dim_S: int
    factor_wandering_dims: list | None
    distinguished_dim: int | None
    eigenvalues: list | None
    shift_points: list | None
    mode: str
    hypotheses: dict
    failed_hypotheses: list
    multiplicities: dict
    verdicts: dict
    residuals: dict
    settings: dict
    elapsed_seconds: float
    passed: bool
    notes: list = field(default_factory=list)

    @property
    def succeeded(self):
        """Every check passed and both multiplicities are certified (the CLI's PASS)."""
        return self.passed and all(m["certified"] for m in self.multiplicities.values())

    def to_json(self):
        return {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}


_HYPOTHESES = ("cyclic", "gws_restriction", "eigen_ok", "proper_coinvariant", "zero_based")


def _factor_hypotheses(factors, scn):
    """Evaluate the additive-formula hypotheses factor by factor.  T needs
    max(1, max_z dim ker (T - z)) generators over its spectrum, its number of
    invariant factors, so ``cyclic_bounds`` reads kH of ``f.kernels``.  zero_based
    reads kQ at 0: ker (Q^H T Q)^H is Q's part of ker T^H, for Q is co-invariant
    (for C[z]/(p) with ideal (q), q(0) = 0).  eigen_ok reads ``f.eigenpair``'s
    residual."""
    hyp = {}
    failed = []
    for i, f in enumerate(factors):
        c = max([1, *(f.kernels(z, scn.tol)[2].shape[1] for z in f.spectrum)])
        eigen_residual = f.eigenpair[2] if f.eigenpair else float("inf")
        record = {
            "label": f.label,
            "cyclic": c == 1,
            "cyclic_bounds": [c, c],
            "gws_restriction": bool(f.wandering_generates),
            "eigen_residual": float(eigen_residual),
            "eigen_ok": bool(eigen_residual <= max(scn.tol, 1e-10)),
            "proper_coinvariant": 0 < f.Q.dim < f.T.shape[0],
            "zero_based": f.kernels(0, scn.tol)[1].shape[1] > 0,
        }
        record["ok"] = all(record[name] for name in _HYPOTHESES)
        hyp[f"factor_{i}"] = record
        failed += [f"factor_{i}:{name}" for name in _HYPOTHESES if not record[name]]
    return hyp, failed


def _structural_verdicts(scn, struct):
    verdicts = {}
    for name, fam in struct.families().items():
        worst = max(fam.values(), default=0.0)
        verdicts[name] = {
            "status": "pass" if worst <= scn.check_tol else "fail",
            "max_residual": float(worst),
            "threshold": scn.check_tol,
        }
    return verdicts


# A shift-lemma draw ranked with a margin (subspaces.rank_margin) below this is a
# near-tie: rounding can flip its answer, so it is marginal, neither agreed nor failed.
SHIFT_LEMMA_MIN_MARGIN = 100.0


def _shift_lemma_verdict(scn, comp_S, mult_S):
    """mult(S)'s witness, or with no witness ``lower`` seeded Gaussian vectors, must
    generate inside S under ``comp_S`` shifted by six seeded points as it does
    unshifted.  Each draw is bounded from mult(S)'s rank decisions (``slots.shift_bound``),
    with no shifted factorization; a set that no local test took is tested here once,
    unshifted.  A draw agrees when it agrees with a margin of at least M =
    SHIFT_LEMMA_MIN_MARGIN and is marginal when its margin is below M.  The check fails
    on any other draw, and when no draw agrees: near-ties show nothing."""
    rng = np.random.default_rng([scn.seed, 101])
    n, tol, M = comp_S.n, scn.tol, SHIFT_LEMMA_MIN_MARGIN
    points = [0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
              for _ in range(6)]
    G = mult_S.witness_generators or list(
        (rng.standard_normal((comp_S.dim, mult_S.lower, 2)) @ [1, 1j]).T)
    ranked = mult_S.ranked or {mu: s for mu, _, s in _ranked(
        ((mu, comp_S.cokernel(mu, tol)) for mu, c in mult_S.coranks.items() if c), np.transpose(G))}
    checks = shift_bound(comp_S, G, mult_S.coranks, ranked, points, tol)
    agreed = sum(bool(agree and margin >= M) for agree, margin in checks)
    marginal = sum(margin < M for _, margin in checks)
    status = "pass" if agreed and agreed + marginal == len(checks) else "fail"
    return {"status": status, "draws": len(checks), "agreed": agreed, "marginal": marginal}


def run_scenario(scn):
    """Execute a scenario and return its Report."""
    t0 = time.perf_counter()
    factors = [resolve_factor(spec, scn.tol, scn.base_dir) for spec in scn.factor_specs]
    sys = build_system(factors, tol=scn.tol)
    chain = f_chain(sys)
    struct = verify_compression_structure(sys, chain)
    comp_S, comp_F = struct.compressions

    hyp, failed = _factor_hypotheses(factors, scn)
    mode = "equality" if not failed else "inequality_only"

    notes = []
    wdec = None
    try:
        wdec = wandering_E(sys)
    except EigenError as exc:
        notes.append(f"distinguished summands unavailable: {exc}")

    # the joint eigenvalues of S and F lie in the product of slot spectra (see multiplicity)
    mult_S, mult_F = (multiplicity(C, lambda_samples=sys.joint_spectrum(), trials=scn.trials,
                                   seed=scn.seed, tol=scn.tol, exact_points=True)
                      for C in (comp_S, comp_F))
    # only W_lam(S)'s dim is a rank: W_lam(F) is built with sum_t cS_t prod_{s != t} cQ_s columns
    second = slot_coranks(sys, scn.tol)
    if off := sum(c[0] != mult_S.coranks.get(lam, 0) for lam, c in second.items()):
        mult_S.certified = False
        notes.append(f"mult(S) uncertified: dim W_lam is off slot_coranks at {off} points")
    for name, res, C in (("S", mult_S, comp_S), ("F", mult_F, comp_F)):
        if leaks := len(C.leaks):  # the slot formula's W_lam fails its inclusion residual
            res.certified = False
            notes.append(f"mult({name}) uncertified: W_lam leaves the cokernel at {leaks} points")
    gws_S = mult_S.wandering_generates  # mult(S) tried W_S first

    verdicts = _structural_verdicts(scn, struct)
    for name in scn.checks:
        if name == "shift_lemma":
            verdicts[name] = _shift_lemma_verdict(scn, comp_S, mult_S)
        elif name == "gws":
            verdicts[name] = {
                "status": "pass",
                "has_gws": gws_S,
                "wandering_dim": int(mult_S.wandering.dim),
                "applicable": gws_S and mult_S.certified,
            }
        elif name == "additive_formula":
            predicted = None if wdec is None else int(sum(wdec.factor_wandering_dims))
            if mode == "equality":
                ok = (
                    wdec is not None
                    and mult_S.certified
                    and mult_F.certified
                    and mult_S.upper == mult_F.upper == predicted
                )
            else:
                ok = mult_S.upper >= mult_F.lower
            verdicts[name] = {
                "status": "pass" if ok else "fail",
                "mode": mode,
                "predicted_sum": predicted,
                "distinguished_dim": predicted,
                "mult_S": _mult_to_json(mult_S),
                "mult_F": _mult_to_json(mult_F),
            }
    ordered_verdicts = {name: verdicts[name] for name in scn.checks}

    residuals = {name: max(fam.values(), default=0.0) for name, fam in struct.families().items()}
    residuals["doubly_commuting"] = 0.0  # distinct slots commute by the mixed-product property
    residuals["coinvariance"] = max(f.coinvariance_residual for f in factors)
    if wdec is not None:
        residuals["distinguished_alignment"] = float(wdec.alignment_residual)
        residuals["eigen"] = max(e[2] for e in wdec.eigen_data)

    passed = all(v["status"] == "pass" for v in ordered_verdicts.values())

    return Report(
        label=scn.label,
        dims=list(sys.dims),
        factor_labels=[f.label for f in factors],
        dim_S=chain.dims[0],
        dim_F=int(comp_F.dim),
        chain_dims=chain.dims[1:],
        x_ranks=list(chain.x_ranks),
        wandering_dim_S=int(mult_S.wandering.dim),
        factor_wandering_dims=None if wdec is None else list(map(int, wdec.factor_wandering_dims)),
        distinguished_dim=None if wdec is None else int(sum(wdec.factor_wandering_dims)),
        eigenvalues=None if wdec is None else [complex_to_pair(e[0]) for e in wdec.eigen_data],
        shift_points=(
            None if wdec is None
            else [[complex_to_pair(z) for z in pt] for pt in wdec.shift_points]
        ),
        mode=mode,
        hypotheses=hyp,
        failed_hypotheses=failed,
        multiplicities={"S": _mult_to_json(mult_S), "F": _mult_to_json(mult_F)},
        verdicts=ordered_verdicts,
        residuals={k: float(v) for k, v in residuals.items()},
        settings={
            "tol": scn.tol,
            "check_tol": scn.check_tol,
            "trials": scn.trials,
            "seed": scn.seed,
        },
        elapsed_seconds=float(time.perf_counter() - t0),
        passed=bool(passed),
        notes=notes,
    )


def report_to_text(report):
    """Human-oriented one-screen summary of a report."""
    lines = []
    lines.append(f"scenario: {report.label or '(unnamed)'}")
    lines.append(
        "factors: " + ", ".join(
            f"{lab} (m={m})" for lab, m in zip(report.factor_labels, report.dims)
        )
    )
    lines.append(
        f"dim S = {report.dim_S}, chain {' >= '.join(str(d) for d in report.chain_dims)}, "
        f"X ranks {report.x_ranks}"
    )
    ms, mf = report.multiplicities["S"], report.multiplicities["F"]

    def fmt(m):
        if m["certified"]:
            return f"{m['upper']} (certified)"
        return f"[{m['lower']}, {m['upper']}] (not certified)"

    lines.append(f"mult(S) = {fmt(ms)}, mult(F) = {fmt(mf)}")
    if report.factor_wandering_dims is not None:
        lines.append(
            f"factor wandering dims {report.factor_wandering_dims}, "
            f"distinguished dim {report.distinguished_dim}"
        )
    lines.append(f"mode: {report.mode}")
    if report.failed_hypotheses:
        lines.append("failed hypotheses: " + ", ".join(report.failed_hypotheses))
    for name, v in report.verdicts.items():
        detail = ""
        if "max_residual" in v:
            detail = f" (max residual {v['max_residual']:.3e})"
        elif name == "shift_lemma":
            detail = f" ({v['agreed']}/{v['draws']} draws agreed, {v['marginal']} marginal)"
        lines.append(f"  [{'PASS' if v['status'] == 'pass' else 'FAIL'}] {name}{detail}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(
        f"result: {'PASS' if report.succeeded else 'FAIL'} "
        f"({report.elapsed_seconds:.2f}s)"
    )
    return "\n".join(lines)
