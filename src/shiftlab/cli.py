"""Command-line front end.

Subcommands, each with only the options it reads:

* ``run <scenario.json>`` -- execute one scenario, print its report.
* ``suite <dir>`` -- run every ``*.json`` scenario in a directory.
  Both take ``--tol``, ``--trials``, ``--seed``, ``--format`` and ``--out``.
* ``model dump <spec>`` -- print a model operator as interchange JSON (``--out``).
* ``closure <spec> <vectors.json>`` -- Krylov closure of given columns
  under a single model operator, as JSON (``--tol``, ``--out``).

Exit codes: 0 all checks passed, 1 some check failed, a multiplicity was
left uncertified or a numerical routine did not converge, 2 configuration or
usage error.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError, ShiftlabError
from .models import complex_to_pair, load_matrix, matrix_to_json
from .multiplicity import krylov_closure
from .scenarios import (
    _NAMED_KINDS,
    _count,
    _positive,
    _resolve_kind,
    load_scenario,
    report_to_text,
    run_scenario,
)
from .subspaces import DEFAULT_TOL


def _parse_model_spec(spec):
    """Accept 'hardy:4' / 'wb2.5:3' shorthands or a JSON factor-kind file."""
    base_dir = "."
    if ":" in spec and not spec.lower().endswith(".json"):
        kind_s, _, m_s = spec.partition(":")
        try:
            m = int(m_s)
        except ValueError:
            raise ConfigError(f"model spec {spec!r}: size after ':' must be an integer")
        if kind_s in _NAMED_KINDS:
            obj = {"kind": kind_s, "m": m}
        elif kind_s.startswith("wb"):
            try:
                alpha = float(kind_s[2:])
            except ValueError:
                raise ConfigError(f"model spec {spec!r}: cannot parse weight parameter")
            obj = {"kind": {"weighted_bergman": alpha}, "m": m}
        else:
            raise ConfigError(
                f"unknown model shorthand {kind_s!r}; use hardy/bergman/dirichlet/wb<alpha>"
            )
    else:
        path = Path(spec)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read model spec {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model spec {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError(f"model spec file {path} must be an object with a 'kind'")
        base_dir = path.parent
    try:
        return _resolve_kind(obj, base_dir)
    except ConfigError:
        raise
    except ShiftlabError as exc:
        raise ConfigError(f"invalid model spec {spec!r}: {exc}") from exc


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _apply_overrides(scn, args):
    """Command-line settings override the file's, under the scenario JSON rules."""
    if args.tol is not None:
        scn.tol = _positive(args.tol, "--tol")
    if args.trials is not None:
        scn.trials = _count(args.trials, "--trials")
    if args.seed is not None:
        scn.seed = _count(args.seed, "--seed")
    return scn


def _cmd_run(args):
    scn = _apply_overrides(load_scenario(args.scenario), args)
    report = run_scenario(scn)
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2, sort_keys=True), args.out)
    else:
        _emit(report_to_text(report), args.out)
    return 0 if report.succeeded else 1


def _cmd_suite(args):
    root = Path(args.directory)
    if not root.is_dir():
        raise ConfigError(f"{root} is not a directory")
    paths = sorted(root.glob("*.json"))
    if not paths:
        raise ConfigError(f"no scenario files (*.json) found in {root}")
    reports = []
    for path in paths:
        scn = _apply_overrides(load_scenario(path), args)
        reports.append(run_scenario(scn))
    if args.format == "json":
        payload = [r.to_json() for r in reports]
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = []
        for r in reports:
            ms = r.multiplicities["S"]
            mult = str(ms["upper"]) if ms["certified"] else f"[{ms['lower']},{ms['upper']}]"
            lines.append(
                f"[{'PASS' if r.succeeded else 'FAIL'}] {r.label}: dim S = {r.dim_S}, "
                f"mult(S) = {mult}, mode = {r.mode} ({r.elapsed_seconds:.2f}s)"
            )
        total = sum(r.succeeded for r in reports)
        lines.append(f"{total}/{len(reports)} scenarios passed")
        _emit("\n".join(lines), args.out)
    return 0 if all(r.succeeded for r in reports) else 1


def _cmd_model_dump(args):
    T, model, desc = _parse_model_spec(args.spec)
    payload = {"label": desc, "m": T.shape[0], "matrix": matrix_to_json(T)}
    if model is not None and hasattr(model, "weights"):
        payload["weights"] = [float(w) for w in model.weights]
    if model is not None and hasattr(model, "roots"):
        payload["roots"] = [
            {"value": complex_to_pair(lam), "multiplicity": mult}
            for lam, mult in model.roots
        ]
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_closure(args):
    T, _, desc = _parse_model_spec(args.spec)
    try:
        cols = load_matrix(args.vectors)
    except InputError as exc:
        raise ConfigError(f"cannot read vectors file {args.vectors}: {exc}") from exc
    if cols.shape[0] != T.shape[0]:
        raise ConfigError(
            f"vectors live in C^{cols.shape[0]} but {desc} acts on C^{T.shape[0]}"
        )
    tol = DEFAULT_TOL if args.tol is None else _positive(args.tol, "--tol")
    closed = krylov_closure((T,), cols, tol=tol)
    payload = {
        "model": desc,
        "generators": cols.shape[1],
        "dim": closed.dim,
        "basis": matrix_to_json(closed.basis),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def build_parser():
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None, help="rank-decision tolerance override")
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--trials", type=int, default=None,
                          help="random generator draws at the corank bound, made only "
                               "if the wandering subspace does not generate")
    settings.add_argument("--seed", type=int, default=None, help="RNG seed override")
    settings.add_argument("--format", choices=("text", "json"), default="text",
                          help="output format (default: text)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = argparse.ArgumentParser(
        prog="shiftlab",
        description="Verify subspace-chain structure and certified multiplicities "
                    "for tensor products of truncated shift models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", parents=[tol, settings, out], help="run one scenario file")
    sp.add_argument("scenario", help="path to a scenario JSON file")
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("suite", parents=[tol, settings, out],
                        help="run every *.json scenario in a directory")
    sp.add_argument("directory", help="directory of scenario files")
    sp.set_defaults(func=_cmd_suite)

    mp = sub.add_parser("model", help="model utilities")
    msub = mp.add_subparsers(dest="model_command", required=True)
    sp = msub.add_parser("dump", parents=[out], help="print a model operator as JSON")
    sp.add_argument("spec", help="shorthand like hardy:4 or wb2:3, or a JSON factor file")
    sp.set_defaults(func=_cmd_model_dump)

    sp = sub.add_parser("closure", parents=[tol, out],
                        help="Krylov closure of vectors under one model")
    sp.add_argument("spec", help="model spec (shorthand or JSON factor file)")
    sp.add_argument("vectors", help="JSON matrix of generator columns")
    sp.set_defaults(func=_cmd_closure)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ShiftlabError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
