"""
Certifying how many generators a subspace needs
===============================================

The multiplicity of a commuting tuple on an invariant subspace L is the
least number of vectors whose joint Krylov closure fills L.  Exact values
are certified by bracketing: corank lower bounds at the joint eigenvalues
of the compressed tuple, which the caller passes (valid because closures
ignore scalar shifts of the tuple), against a generating set of that size
that provably exhausts L: the wandering subspace first, then random draws.
"""

import numpy as np

from shiftlab import (
    SpaceKind,
    Subspace,
    krylov_closure,
    local_corank,
    make_shift,
    multiplicity,
    shifted_closure_check,
    wandering_subspace,
)

# --- closures under a single shift --------------------------------------------
T = make_shift(SpaceKind.hardy(), 5).operator
for j in (0, 2, 4):
    closed = krylov_closure((T,), np.eye(5)[:, j:j + 1])
    print(f"closure of e_{j} under the Hardy shift: dim = {closed.dim}")

# --- scalar shifts do not change closures ---------------------------------------
rng = np.random.default_rng(0)
G = rng.standard_normal((5, 1))
agree, margin = shifted_closure_check((T,), G, (0.7,), tol=1e-8)
print(f"closure equals closure of (T - 0.7 I): {agree} (rank margin {margin:.1e})")

# --- corank lower bounds ----------------------------------------------------------
# Two Jordan blocks need two generators; the corank at the origin sees it.
J = np.zeros((4, 4))
J[1, 0] = J[3, 2] = 1.0
L = Subspace.full(4)
print("\ntwo Jordan blocks: corank at 0 =", local_corank((J,), L, (0.0,)))
print("corank at a generic point =", local_corank((J,), L, (0.3 + 0.1j,)))

# --- certified multiplicity --------------------------------------------------------
res = multiplicity((J,), lambda_samples=[(0.0,)])  # J is nilpotent: its spectrum is {0}
print(f"multiplicity bracket: [{res.lower}, {res.upper}], certified = {res.certified}")
print("witness point:", res.witness_point)
print("witness generators found:", len(res.witness_generators))
print("wandering subspace generates:", res.wandering_generates)
print("random generator trials used:", res.trials_used)

W = wandering_subspace((J,), L)
print("wandering dimension =", W.dim, "(equals the certified multiplicity)")

# --- a tuple example -----------------------------------------------------------------
# Polynomials in one matrix commute; their joint multiplicity is 1 exactly
# when some single vector is cyclic for the pair.  The joint eigenvalues are
# (mu, mu^2 - 0.4) for the eigenvalues mu of M.
M = rng.standard_normal((5, 5)) / 3
pair = (M, M @ M - 0.4 * np.eye(5))
res = multiplicity(pair, lambda_samples=[(mu, mu**2 - 0.4) for mu in np.linalg.eigvals(M)])
print(f"\ncommuting pair: bracket [{res.lower}, {res.upper}], certified = {res.certified}")
