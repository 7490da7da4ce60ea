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
    OperatorTuple,
    SpaceKind,
    krylov_closure,
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
closed = krylov_closure((T,), G, tol=1e-8)
points = [(0.7,), (-0.3 + 0.2j,)]
for lam, (agree, margin) in zip(points, shifted_closure_check((T,), G, closed, points)):
    print(f"closure equals closure of (T - {lam[0]} I): {agree} (rank margin {margin:.1e})")

# --- corank lower bounds ----------------------------------------------------------
# Two Jordan blocks need two generators; the corank at the origin sees it.
# The corank at lam is the dimension of the wandering subspace of J - lam.
J = np.zeros((4, 4))
J[1, 0] = J[3, 2] = 1.0
Jt = OperatorTuple((J,))
print("\ntwo Jordan blocks: corank at 0 =", wandering_subspace(Jt).dim)
print("corank at a generic point =", wandering_subspace(Jt.shifted(0.3 + 0.1j)).dim)

# --- certified multiplicity --------------------------------------------------------
res = multiplicity((J,), lambda_samples=[(0.0,)])  # J is nilpotent: its spectrum is {0}
print(f"multiplicity bracket: [{res.lower}, {res.upper}], certified = {res.certified}")
print("witness point:", res.witness_point)
print("witness generators found:", len(res.witness_generators))
print("wandering subspace generates:", res.wandering_generates)
print("random generator trials used:", res.trials_used)
# the witness's closure is all of C^4; shifting J does not change that
checks = shifted_closure_check((J,), res.witness_generators, res.witness_closure,
                               [(0.5,), (-1j,)])
print("witness closure unchanged under two shifts:", all(agree for agree, _ in checks))

W = wandering_subspace(Jt)
print("wandering dimension =", W.dim, "(equals the certified multiplicity)")

# --- a tuple example -----------------------------------------------------------------
# Polynomials in one matrix commute; their joint multiplicity is 1 exactly
# when some single vector is cyclic for the pair.  The joint eigenvalues are
# (mu, mu^2 - 0.4) for the eigenvalues mu of M.
M = rng.standard_normal((5, 5)) / 3
pair = (M, M @ M - 0.4 * np.eye(5))
res = multiplicity(pair, lambda_samples=[(mu, mu**2 - 0.4) for mu in np.linalg.eigvals(M)])
print(f"\ncommuting pair: bracket [{res.lower}, {res.upper}], certified = {res.certified}")
