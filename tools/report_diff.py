"""Dump scenario reports and compare two dumps field by field.

    python3 tools/report_diff.py dump OUT
    python3 tools/report_diff.py compare A B [--allow PATH ...]

``dump`` runs, with the shiftlab in this checkout's ``src/``:

* the four shipped scenarios in ``scenarios/``;
* the 20 random prefix scenarios of
  ``tests/test_acceptance.py::test_criterion_4_randomized_structural_sweep``;
* every scenario that ``perfbench/workloads.py`` generates at seeds 1-3
  (read only, imported from its file);
* each of those again under ``rotated/<key>``, every factor in a random
  unitary basis (``rotated_scenarios``): the same tuple, so the same mode,
  dimensions and multiplicities, through the route of a non-triangular
  ``matrix`` factor.

It writes each ``Report.to_json()`` without ``elapsed_seconds`` to the JSON
file OUT, keyed by scenario.  ``compare`` prints every field path whose value
differs between two dumps, with the number of reports it differs in and the
keys of the first five of them, and exits 1 if any does.  Where both sides
hold finite numbers at a changed path, it adds the largest |A - B| over the
reports it changed in and each side's largest magnitude there, so that a
rounding-level move can be quoted as printed.  Where the path holds only
integers (not booleans), it also adds each side's total over the common
reports, so that a moved count can be quoted as printed.  A path that
matches an ``--allow`` pattern (an ``fnmatch`` pattern such as
``residuals.chain`` or ``verdicts.*.max_residual``) is still printed, marked
``(allowed)``, but does not set the exit code.  To compare two
commits, dump from a checkout of each (with ``OPENBLAS_NUM_THREADS=1``, so
that BLAS sums in one order) and compare the files.  Stdlib and numpy only.
"""

import dataclasses
import fnmatch
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from shiftlab import load_scenario, matrix_to_json, run_scenario, scenario_from_json  # noqa: E402
from shiftlab.scenarios import resolve_factor  # noqa: E402


def shipped_scenarios():
    """(key, Scenario) for every scenario file in scenarios/."""
    return [(f"shipped/{p.stem}", load_scenario(p))
            for p in sorted((ROOT / "scenarios").glob("*.json"))]


def criterion_4_objects():
    """The scenario objects test_criterion_4_randomized_structural_sweep draws, in order."""
    rng = np.random.default_rng(20250815)
    kinds = ["hardy", "bergman", "dirichlet", "wb"]
    out = []
    for trial in range(20):
        factors = []
        for _ in range(2 + trial % 2):
            kind = kinds[rng.integers(0, len(kinds))]
            m = int(rng.integers(3, 6))
            k = int(rng.integers(1, m))
            spec = {"m": m, "coinvariant": {"prefix": k}}
            if kind == "wb":
                spec["kind"] = {"weighted_bergman": float(rng.choice([1.5, 2.0, 3.0]))}
            else:
                spec["kind"] = kind
            factors.append(spec)
        out.append({"factors": factors})
    return out


def workload_scenarios():
    """(key, Scenario) for every perfbench workload case at seeds 1-3."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for name, generate in workloads.WORKLOADS.items():
        for seed in (1, 2, 3):
            for case in generate(seed):
                scn = (load_scenario(ROOT / case.path) if case.path is not None
                       else scenario_from_json(case.scenario))
                out.append((f"{name}/{seed}/{case.name}", scn))
    return out


def criterion_4_scenarios():
    """(key, Scenario) for the criterion-4 scenario objects, in order."""
    return [(f"criterion-4/{i:02d}", scenario_from_json(obj))
            for i, obj in enumerate(criterion_4_objects())]


def all_scenarios():
    return shipped_scenarios() + criterion_4_scenarios() + workload_scenarios()


def rotated(scn, rng):
    """``scn`` with each factor (T, Q) given as the matrix V T V^H and the basis V Q,
    for V the unitary Q factor of a complex Gaussian m x m drawn from ``rng``."""
    specs = []
    for spec in scn.factor_specs:
        f = resolve_factor(spec, scn.tol, scn.base_dir)
        m = len(f.T)
        V = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        specs.append({"kind": {"matrix": matrix_to_json(V @ f.T @ V.conj().T)},
                      "coinvariant": {"basis": matrix_to_json(V @ f.Q.basis)},
                      "label": f.label})
    return dataclasses.replace(scn, factor_specs=specs)


def rotated_scenarios(scenarios, seed=7):
    """(rotated/<key>, ``rotated`` Scenario) for each (key, Scenario), in order, every
    V drawn from one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return [(f"rotated/{key}", rotated(scn, rng)) for key, scn in scenarios]


def dump(out, scenarios):
    """Run each (key, Scenario) and write {key: report JSON minus elapsed_seconds}."""
    reports = {}
    for key, scn in scenarios:
        rep = run_scenario(scn).to_json()
        del rep["elapsed_seconds"]
        reports[key] = rep
    Path(out).write_text(json.dumps(reports, indent=1, sort_keys=True), encoding="utf-8")
    return reports


def _leaves(obj, prefix=""):
    """Field path -> value; dicts are descended into, everything else is a leaf."""
    if isinstance(obj, dict) and obj:
        out = {}
        for k, v in obj.items():
            out.update(_leaves(v, f"{prefix}.{k}" if prefix else str(k)))
        return out
    return {prefix: obj}


def compare(a, b):
    """Per changed field path, the sorted keys of the reports (keys in both dumps)
    it changed in.

    A field present on one side only counts as changed.
    """
    changed = {}
    for key in sorted(a.keys() & b.keys()):
        la, lb = _leaves(a[key]), _leaves(b[key])
        for path in la.keys() | lb.keys():
            # json.dumps compares NaN and -0.0 by their text, as the dumps store them
            if json.dumps(la.get(path, "<absent>")) != json.dumps(lb.get(path, "<absent>")):
                changed.setdefault(path, []).append(key)
    return changed


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def spread(a, b, path, keys):
    """(max |A - B|, max |A|, max |B|) of ``path`` over the reports ``keys`` where
    both sides hold a finite number there; None where none does."""
    pairs = [(x, y) for x, y in ((_leaves(a[k]).get(path), _leaves(b[k]).get(path))
                                 for k in keys) if _number(x) and _number(y)]
    if not pairs:
        return None
    return (max(abs(x - y) for x, y in pairs), max(abs(x) for x, _ in pairs),
            max(abs(y) for _, y in pairs))


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def totals(a, b, path, keys):
    """(sum over A, sum over B) of ``path`` over the reports ``keys``, where every
    value it holds there is an integer; None where some value is not, or none is
    held."""
    sides = [[v for v in (_leaves(d[k]).get(path) for k in keys) if v is not None]
             for d in (a, b)]
    if not any(sides) or not all(_integer(v) for side in sides for v in side):
        return None
    return sum(sides[0]), sum(sides[1])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "dump":
        scenarios = all_scenarios()
        reports = dump(argv[1], scenarios + rotated_scenarios(scenarios))
        print(f"wrote {len(reports)} reports to {argv[1]}")
        return 0
    allow = argv[argv.index("--allow") + 1:] if "--allow" in argv else []
    if "--allow" in argv:
        argv = argv[:argv.index("--allow")]
    if len(argv) == 3 and argv[0] == "compare":
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
        for side, only in (("A", a.keys() - b.keys()), ("B", b.keys() - a.keys())):
            if only:
                print(f"{len(only)} reports only in {side}: {', '.join(sorted(only)[:5])}")
        changed = compare(a, b)
        both = sorted(a.keys() & b.keys())
        common = len(both)
        allowed = {path for path in changed if any(fnmatch.fnmatchcase(path, p) for p in allow)}
        for path in sorted(changed):
            keys = changed[path]
            more = ", ..." if len(keys) > 5 else ""
            mark = " (allowed)" if path in allowed else ""
            moved = spread(a, b, path, keys)
            size = "" if moved is None else ("; max |A-B| {:.3g}, max |A| {:.3g}, max |B| {:.3g}"
                                             .format(*moved))
            total = totals(a, b, path, both)
            size += "" if total is None else "; total A {}, B {}".format(*total)
            print(f"{path}: {len(keys)} of {common} reports ({', '.join(keys[:5])}{more})"
                  f"{size}{mark}")
        if not changed:
            print(f"no field changed in {common} reports")
        return 1 if changed.keys() - allowed or a.keys() != b.keys() else 0
    print("usage: report_diff.py dump OUT | report_diff.py compare A B [--allow PATH ...]",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
