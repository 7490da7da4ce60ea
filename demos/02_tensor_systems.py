"""
Tensorized shift tuples and the nested subspace chain
=====================================================

Embedding factor operators as I (x) ... (x) T_i (x) ... (x) I produces a
doubly commuting tuple.  The joint invariant subspace
S = (Q_1 (x) ... (x) Q_n)-perp carries a nested family
S >= F_1 >= ... >= F_{n-1} = F whose last member splits into blocks the
compressed tuple cannot couple.  Every space of the chain is a union of at most n
slot-kind patterns, words over {Q, S, I} in the slot bases U_s = [Q_s | S_s] whose I
slot stands for both kinds, so its dimension is a sum over its patterns of products
of slot dimensions, and no step lists the 2^n kind-blocks.  This script builds the chain and
re-verifies the structural identities numerically: the projection
identities from per-slot norms, the rest from the slot blocks U_s^H T_s U_s
and their norms, never from N x N matrices.  Three identities hold by
construction and are recorded as exactly 0, not computed: the chain nests,
the tuple cannot couple two summands of F, and operators in distinct slots
doubly commute by the mixed-product property of the Kronecker product.
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
print("distinct slots doubly commute exactly (mixed-product property), so reports record 0")

# --- the chain ----------------------------------------------------------------
chain = f_chain(system)
for name, patterns in zip(["S"] + [f"F_{i}" for i in range(1, system.n)], chain.patterns):
    print(f"patterns of {name}:", ", ".join(patterns))
print("chain dims (S >= F_1 >= ... >= F):", " >= ".join(str(d) for d in chain.dims))
# rank X_i = m_1 ... m_{i-1} dim S_i dim Q_{i+1} ... dim Q_n, from slot dimensions
print("X projection ranks:", chain.x_ranks)
print("positions of S and of F in (x) U_s:", chain.at.size, chain.F_at.size)

# --- re-verify the structure ----------------------------------------------------
report = verify_compression_structure(system, chain)
for family, values in report.families().items():
    print(f"{family:<24} worst residual = {max(values.values(), default=0.0):.2e}")
print("all identities hold at 1e-10:", report.ok(1e-10))

# --- the distinguished wandering summands ---------------------------------------
# Inside each block M_i sits E_i = (S_i (-) T_i S_i) tensored with adjoint
# eigenvectors of the other factors; the compressed tuple acts on E_i like a
# fixed scalar point with slot i zeroed out.  Each E_i is a Kronecker product, so
# its alignment is read from slot norms and dim E is the sum of the factors'
# wandering dims: no E is formed.
wd = wandering_E(system)
print("\nfactor wandering dims:", wd.factor_wandering_dims)
print("dim E =", sum(wd.factor_wandering_dims))
print("per-summand shifted points:",
      [tuple(complex(round(z.real, 4), round(z.imag, 4)) for z in pt)
       for pt in wd.shift_points])
print(f"annihilation residual = {wd.alignment_residual:.1e}")
