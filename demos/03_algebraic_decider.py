"""
A randomized algebraic decider for bipartite graphs
===================================================

On bipartite graphs, exact matching reduces to asking whether one
coefficient of a determinant is nonzero. The decider substitutes random
values from a prime field GF(p) for the edges; by the Schwartz-Zippel
lemma the coefficient of a yes instance survives with probability at least
1 - (n/2)/p per trial, and "no" answers report the conservative one-sided
error bound 2^-trials.
"""

from exactmatch import (
    BLUE,
    RED,
    ColoredGraph,
    EmInstance,
    algebraic_em_decide,
    brute_em,
    cpm_via_em,
    find_bipartition,
    gen_instance,
    GenSpec,
    sample_isolation_weights,
    symbolic_determinant,
)

# Two-coloring a 4-cycle: sides alternate, so the graph is bipartite. Each
# vertex's side is 0 (left, the matrix rows) or 1 (right, its columns).
c4 = ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
sides = find_bipartition(c4)
left = tuple(v for v, side in enumerate(sides) if side == 0)
right = tuple(v for v, side in enumerate(sides) if side == 1)
print("sides:", sides, "left:", left, "right:", right)

# The exact symbolic determinant in the red-marker variable y, with
# isolation weights 2^w, is the reference the decider is tested against:
# the coefficient of y^j collects (signed) powers of two from perfect
# matchings with j red edges. It comes back as a tuple of coefficients,
# lowest power first, with no trailing zero. Here both matchings are
# visible: one blue-blue, one through red.
weights = sample_isolation_weights(len(c4.edges), 0)
det = symbolic_determinant(c4, sides, weights)
print("weights:", weights)
print("determinant coefficients by red count:", det)

# Cancellation is the failure mode random values guard against: with
# equal weights on an all-blue 4-cycle, the two matchings have opposite
# sign and identical weight, and the determinant collapses to zero even
# though perfect matchings exist, and () is the zero polynomial. A zero
# never certifies "no".
all_blue = ColoredGraph(4, ((0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
flat = symbolic_determinant(all_blue, find_bipartition(all_blue), (1, 1, 1, 1))
print("all-blue C4 with flat weights, determinant:", flat)

# The full decider: yes answers are certified, no answers carry an error
# bound of 2^-trials. Each trial gets every coefficient of det(B + yR)
# over GF(p) from one elimination and one characteristic polynomial; the
# transcript shows each trial's field values and outcome.
decision = algebraic_em_decide(EmInstance(c4, 1), trials=8, seed=4)
print("decide k=1:", decision.answer, "after", decision.trials_run, "trial(s)")
decision = algebraic_em_decide(EmInstance(c4, 2), trials=8, seed=4)
print("decide k=2:", decision.answer, "error bound", decision.error_bound)

# Measuring the per-trial detection rate on generated yes instances: each
# trial misses with probability at most (n/2)/p, about 3e-9 here, so the
# reported 2^-trials bound is very conservative.
hits = 0
yes_total = 0
for seed in range(300):
    inst = gen_instance(GenSpec(n=6, extra_edges=4, seed=seed, bipartite=True))
    if brute_em(inst) is None:
        continue
    yes_total += 1
    hits += algebraic_em_decide(inst, trials=1, seed=seed).answer
print(f"single-trial detection: {hits}/{yes_total} = {hits / yes_total:.3f}")

# Parity matching rides on top: one exact matching query per red count of
# the right parity, with a union-bound error when the decider is random.
parity = cpm_via_em(EmInstance(c4, 3),
                    em_decider=lambda i: algebraic_em_decide(i, trials=8, seed=1))
print("cpm k=3:", parity.answer, "queries:", parity.queries)
