"""
The additive multiplicity formula, and when it fails
====================================================

For well-behaved factors the multiplicity of the joint invariant subspace S
splits as a sum over factors:

    mult(S) = mult(F) = sum_i dim(S_i (-) T_i S_i).

The scenario runner checks the hypotheses factor by factor.  When one fails
(a non-cyclic factor, or a restriction with no wandering vectors) the run
downgrades honestly: it still certifies mult(S) >= mult(F) but claims no
equality.  This script runs one example of each situation.
"""

import json

from shiftlab import report_to_text, run_scenario, scenario_from_json

# --- the equality case ---------------------------------------------------------
good = {
    "label": "hardy-pair",
    "factors": [
        {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}},
        {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}},
    ],
}
rep = run_scenario(scenario_from_json(good))
print(report_to_text(rep))
print()

# --- a factor with no wandering vectors ------------------------------------------
# The ideal (z - 0.3) inside C[z]/((z-0.3)(z+0.5)) is invariant but the
# restricted operator acts invertibly on it, so S_1 (-) T_1 S_1 = 0 and the
# generating-wandering hypothesis fails.  The factor is not zero-based either:
# Q_1 carries only the adjoint eigenvalue 0.3, so the zero_based hypothesis
# fails too.  The certified multiplicity of S is
# 1, which equals dim S_1 (-) T_1 S_1 + dim S_2 (-) T_2 S_2 = 0 + 1 but is
# strictly below the per-factor count n = 2 the paper gives for zero-based
# factors.
no_wandering = {
    "label": "quotient-ideal",
    "factors": [
        {
            "kind": {"quotient_roots": [[[0.3, 0.0], 1], [[-0.5, 0.0], 1]]},
            "coinvariant": {"ideal_roots": [[[0.3, 0.0], 1]]},
        },
        {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}},
    ],
}
rep = run_scenario(scenario_from_json(no_wandering))
print(report_to_text(rep))
print()

# --- a non-cyclic factor -----------------------------------------------------------
# Two Jordan blocks need two generators on their own; the runner flags the
# cyclicity hypothesis and keeps only the inequality.
noncyclic = {
    "label": "two-blocks",
    "factors": [
        {
            "kind": {"matrix": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]},
            "coinvariant": {"prefix": 2},
        },
        {"kind": "hardy", "m": 2, "coinvariant": {"prefix": 1}},
    ],
}
rep = run_scenario(scenario_from_json(noncyclic))
print(report_to_text(rep))

# The machine-readable report carries every verdict and residual:
print("\nverdict keys:", list(rep.verdicts))
print("as JSON:", json.dumps(rep.to_json()["multiplicities"], sort_keys=True))
