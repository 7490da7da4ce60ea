"""
Tensorized shift tuples and the nested subspace chain
=====================================================

Embedding factor operators as I (x) ... (x) T_i (x) ... (x) I produces a
doubly commuting tuple.  The joint invariant subspace
S = (Q_1 (x) ... (x) Q_n)-perp carries a nested family
S >= F_1 >= ... >= F_{n-1} = F whose last member splits into blocks the
compressed tuple cannot couple.  This script builds everything explicitly
and re-verifies each structural identity numerically: the projection
identities from per-slot norms, the rest from orthonormal bases and
compressions computed by slot products, never from N x N matrices.  The
doubly commuting residual prints as exactly 0: operators in distinct slots
commute by the mixed-product property of the Kronecker product, so it is
not computed.
"""

from shiftlab import (
    SpaceKind,
    build_system,
    f_chain,
    make_shift,
    prefix_coinvariant,
    tensor_factor,
    verify_compression_structure,
    wandering_E,
)

# --- assemble three different factors ----------------------------------------
factors = []
for kind, m, k in (
    (SpaceKind.hardy(), 3, 1),
    (SpaceKind.bergman(), 3, 1),
    (SpaceKind.dirichlet(), 3, 1),
):
    model = make_shift(kind, m)
    factors.append(tensor_factor(model.operator, prefix_coinvariant(model, k),
                                 label=model.label()))

system = build_system(factors)
print(f"ambient dimension N = {system.N}, factors = {[f.label for f in system.factors]}")
print(f"doubly commuting residual = {system.doubly_commuting_residual:.1e}")

# --- the chain ----------------------------------------------------------------
chain = f_chain(system)
dims = [chain.S.dim] + [F.dim for F in chain.F_chain]
print("\nchain dims (S >= F_1 >= ... >= F):", " >= ".join(str(d) for d in dims))
# rank X_i = m_1 ... m_{i-1} dim S_i dim Q_{i+1} ... dim Q_n, from slot dimensions
print("X projection ranks:", chain.x_ranks)
print("block summand dims of F:", [M.dim for M in chain.M_summands])

# --- re-verify the structure ----------------------------------------------------
report = verify_compression_structure(system, chain)
for family, values in report.families().items():
    print(f"{family:<24} worst residual = {max(values.values(), default=0.0):.2e}")
print("all identities hold at 1e-10:", report.ok(1e-10))

# --- the distinguished wandering summands ---------------------------------------
# Inside each block M_i sits E_i = (S_i (-) T_i S_i) tensored with adjoint
# eigenvectors of the other factors; the compressed tuple acts on E_i like a
# fixed scalar point with slot i zeroed out.  E is built in S's coordinates,
# and its alignment is read from the compression to S the check above made.
comp_S, comp_F = report.compressions
wd = wandering_E(system, chain, comp_S)
print("\nfactor wandering dims:", wd.factor_wandering_dims)
print("dim E =", wd.E.dim)
print("per-summand shifted points:",
      [tuple(complex(round(z.real, 4), round(z.imag, 4)) for z in pt)
       for pt in wd.shift_points])
print(f"annihilation residual = {wd.alignment_residual:.1e}")
