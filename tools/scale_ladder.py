"""Time Hardy prefix and distinct-root scenarios of growing size, each in a fresh process.

    python3 tools/scale_ladder.py [--no-shift] [SIZE ...]

A SIZE is ``M^n:K``: n Hardy factors of size M, each with the prefix of
length K as its co-invariant subspace, so that the space has dimension
``N = M^n`` and ``dim S = M^n - K^n``.  Or it is ``roots:M^n``: n copies of one
quotient factor with the M roots ``(0.8 + 0.1i) j / M``, ``j = 0 .. M-1`` (0 and
M - 1 others), its ideal on the first two, so that all ``N = M^n`` joint
eigenvalues are distinct points.  The default ladder is
``8^3:4 10^3:5 6^4:3 8^5:4``, up to ``N = 32768``.  The scale gates of ROADMAP
item 2 (the power identity and E's alignment from slot norms) are
``10^5:5 20^4:10 4^9:2`` with every check at one BLAS thread: each run certifies
``mult(S) = n`` and passes the shift lemma 6/6 with 0 marginal draws, under 10 s
and 1 GB.  The gates of the closed-form slot ``W_lam`` are ``6^5:3`` and ``8^5:4``
with every check at one BLAS thread: each certifies ``mult(S) = n`` and passes
the shift lemma 6/6 with 0 marginal draws, ``6^5:3`` under 1.5 s and ``8^5:4``
under 3 s and 300 MB.  The gates of ROADMAP item 17 (the inclusion residual from
slot Grams, and no dense ``E``) are ``--no-shift 30^4:15 4^9:2`` at one BLAS
thread: each certifies ``mult(S) = n``, and neither is slower or peaks higher
than before that change in the same session.  The gates of ROADMAP item 9 (the
chain and structure check from slot-kind patterns, with no list of the 2^n
kind-blocks) are ``2^14:1`` and ``2^16:1`` at one BLAS thread: each certifies
``mult(S) = n``, and ``2^16:1`` with every check passes the shift lemma 6/6 with
0 marginal draws under 10 s and 500 MB.  The gates of ROADMAP item 13 (the shift
lemma's six draws bounded from the unshifted rank margins, with no shifted
factorization) are ``4^9:2 30^4:15`` at one BLAS thread: each certifies
``mult(S) = n`` with 6/6 draws agreed and 0 marginal, and with every check costs
at most 10 % more than with ``--no-shift``, in median time and in peak memory
over 5 alternating runs.  Each size runs at seed 1
once with every check and once without ``shift_lemma``
(with ``--no-shift``, only without it, to see what the shift lemma's six slot
draws add), each run one ``run_scenario`` in its own Python process, with the
shiftlab in this checkout's ``src/``.  For each run it prints:

* ``time``: the wall time of ``run_scenario`` in the child, without the
  interpreter's start-up;
* ``peak rss``: the child's peak resident set size, from the resource usage that
  ``os.wait4`` returns for it;
* ``mult(S)``: the certified multiplicity against the closed form: n for Hardy
  (a Hardy prefix slot with ``0 < K < M`` is cyclic and zero-based, and its
  ``S_i (-) T_i S_i`` is one-dimensional), 1 for distinct roots (each joint
  eigenvalue is simple, so every ``dim W_lam`` is at most 1 and S is cyclic);
* ``shift_lemma``: the verdict's status and agreed/marginal draws, or ``-``.

It exits 1 if any run fails a check or does not certify that closed form.  BLAS
threads follow the environment (``OPENBLAS_NUM_THREADS=1`` for one thread).
Stdlib and numpy only.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SIZES = ("8^3:4", "10^3:5", "6^4:3", "8^5:4")


def parse_size(text):
    """``M^n:K`` as (text, M, n, K), or ``roots:M^n`` as (text, M, n, None)."""
    roots = text.startswith("roots:")
    try:
        mn, k = (text[len("roots:"):], None) if roots else text.split(":")
        m, n = mn.split("^")
        m, n, k = int(m), int(n), None if roots else int(k)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"size must look like 8^3:4 or roots:7^4, got {text!r}") from None
    if not (n >= 2 and (m >= 3 if roots else 0 < k < m)):
        raise argparse.ArgumentTypeError(
            f"need at least 2 factors and 0 < K < M, or M >= 3 roots, got {text!r}")
    return text, m, n, k


def factor(m, k):
    """A Hardy factor of size m with the prefix k, or for k None the distinct-root one."""
    if k is not None:
        return {"kind": "hardy", "m": m, "coinvariant": {"prefix": k}}
    roots = [[[0.8 * j / m, 0.1 * j / m], 1] for j in range(m)]
    return {"kind": {"quotient_roots": roots}, "coinvariant": {"ideal_roots": roots[:2]}}


def run_one(m, n, k, shift):
    """The child: one run_scenario, its summary printed as one JSON line."""
    sys.path.insert(0, str(ROOT / "src"))
    from shiftlab import ALL_CHECKS, run_scenario, scenario_from_json

    checks = [c for c in ALL_CHECKS if shift or c != "shift_lemma"]
    obj = {"factors": [factor(m, k)] * n, "checks": checks, "seed": 1}
    t0 = time.perf_counter()
    rep = run_scenario(scenario_from_json(obj))
    elapsed = time.perf_counter() - t0
    print(json.dumps({"time_s": elapsed, "dim_S": rep.dim_S, "passed": rep.passed,
                      "mult_S": rep.multiplicities["S"],
                      "shift_lemma": rep.verdicts.get("shift_lemma")}))


def spawn(text, shift):
    """Run one size in a fresh process: (its summary, its peak RSS in MB)."""
    cmd = [sys.executable, __file__, "--child", text] + ([] if shift else ["--no-shift"])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"{text} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), usage.ru_maxrss / 1024  # kB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="*", type=parse_size, metavar="SIZE")
    ap.add_argument("--child", type=parse_size, help=argparse.SUPPRESS)
    ap.add_argument("--no-shift", action="store_true",
                    help="run each size only without the shift_lemma check")
    args = ap.parse_args(argv)
    if args.child:
        run_one(*args.child[1:], not args.no_shift)
        return 0
    sizes = args.sizes or [parse_size(s) for s in DEFAULT_SIZES]
    print(f"{'size':>10} {'N':>6} {'dim S':>6} {'checks':>8} {'time':>8} {'peak rss':>9}  "
          f"{'mult(S)':>12}  shift_lemma")
    ok = True
    for text, m, n, k in sizes:
        want = 1 if k is None else n
        for shift in (False,) if args.no_shift else (True, False):
            res, rss = spawn(text, shift)
            mult, v = res["mult_S"], res["shift_lemma"]
            good = res["passed"] and mult["certified"] and mult["upper"] == want
            ok = ok and good
            got = str(mult["upper"]) if mult["certified"] else f"[{mult['lower']}, {mult['upper']}]"
            verdict = "-" if v is None else (
                f"{v['status']} ({v['agreed']}/{v['draws']} agreed, {v['marginal']} marginal)")
            print(f"{text:>10} {m ** n:>6} {res['dim_S']:>6} "
                  f"{'all' if shift else 'no-shift':>8} {res['time_s']:>7.2f}s {rss:>6.0f} MB  "
                  f"{got:>6} vs {want:<2}  {verdict}{'' if good else '  FAIL'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
