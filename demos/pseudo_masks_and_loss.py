"""Anatomy of the spatial constraint loss, from half-plane bands to weights.

Walks through the pieces on tiny grids small enough to read: the mean-
coordinate threshold that turns an anchor map into a half-plane band, the
product-logic implication, the per-pixel penalty it induces and its logit
gradient, and the confidence gate that weights each constraint. Every number
comes from the compiled kernels that refinement runs.
"""

import numpy as np

from relfine import (
    Relation,
    SpatialTriplet,
    compile_constraints,
    fuzzy_implication,
    init_state,
    make_probability_map,
)
from relfine.logic import GATE_BIAS, GATE_SCALE, compiled_spatial_loss, logit_gradient_from_terms


def show(title, grid, fmt="{:4.1f}"):
    print(f"\n{title}")
    for row in np.asarray(grid):
        print("   " + " ".join(fmt.format(v) for v in row))


def inside_region(compiled, i):
    """H x W grid, 1 where constraint i lets its subject sit."""
    return 1.0 - (compiled.rows[i][:, None] + compiled.cols[i][None, :])


object_values = np.array([
    [0.0, 0.0, 0.9, 0.8, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.9, 0.0, 0.0],
    [0.0, 0.0, 0.9, 0.9, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])
subject_values = np.array([
    [0.0, 0.1, 0.0, 0.0, 0.7, 0.8],
    [0.0, 0.0, 0.0, 0.0, 0.9, 0.9],
    [0.3, 0.0, 0.0, 0.0, 0.8, 0.7],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])
# Three maps that sum to one at every pixel, so the softmax state keeps them.
state = init_state({
    "background": make_probability_map(4, 6, (1.0 - object_values - subject_values).ravel()),
    "object": make_probability_map(4, 6, object_values.ravel()),
    "subject": make_probability_map(4, 6, subject_values.ravel()),
})

print("=" * 64)
print("1. Half-plane band from an anchor map")
print("=" * 64)

show("anchor map (an object sitting around columns 2-3):", state.probs[1])
mass = state.probs[1].sum()
rows, cols = np.indices(object_values.shape)
print(f"\nmass-weighted mean: row {(rows * state.probs[1]).sum() / mass:.3f}, "
      f"column {(cols * state.probs[1]).sum() / mass:.3f}")

relations = (Relation.RIGHT, Relation.LEFT, Relation.BELOW, Relation.ABOVE)
compiled = compile_constraints(state, [SpatialTriplet("subject", r, "object") for r in relations])
for i, relation in enumerate(relations):
    print(f"\n{relation.value}-of-object region:")
    for row in inside_region(compiled, i):
        print("   " + " ".join("#" if v else "." for v in row))

print("""
Each region thresholds one coordinate at the anchor's mass-weighted mean, so
it moves with the anchor's current belief, not with its argmax. The compiled
form keeps only the 1-D band of rows or columns the subject must avoid.
""")

print("=" * 64)
print("2. Product-logic implication P -> Q = 1 - P(1-Q)")
print("=" * 64)

for p, q in [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.5, 0.5), (1.0, 1.0), (0.8, 0.25)]:
    print(f"   P={p:.2f}  Q={q:.2f}  ->  {fuzzy_implication(p, q):.3f}")
print("""
Violation needs a confident premise and a failed conclusion: P=1, Q=0 gives
0 (fully violated); P=0 gives 1 regardless (nothing claimed, nothing owed).
""")

print("=" * 64)
print("3. Constraint loss: -sum log(implication) over pixels")
print("=" * 64)

show("subject map (mostly right of the object, strays at columns 0-1):", state.probs[2])

right = compile_constraints(state, [SpatialTriplet("subject", Relation.RIGHT, "object")])
total, terms = compiled_spatial_loss(state, right)
print(f"\nloss for 'subject must sit right of object': {terms.losses[0]:.4f}")
print(f"weight {terms.weights[0]:.4f}, weighted loss {total:.4f}")
grad = logit_gradient_from_terms(state, terms)
show("gradient of the weighted loss on the subject's logits:", grad[2], "{:5.2f}")
print("Descent lowers the subject's logits where it strays outside the allowed")
print("half plane; the gradient is zero inside it and where the subject is absent.")

print()
print("=" * 64)
print("4. Constraint weight: sigmoid-gated mean of the anchor's scores")
print("=" * 64)

for description, values in [
    ("confident anchor (all 0.95)", [0.95] * 6),
    ("uncertain anchor (all 0.45)", [0.45] * 6),
    ("absent anchor   (all 0.02)", [0.02] * 6),
    ("mixed anchor    (one strong pixel)", [0.98, 0.1, 0.1, 0.1, 0.1, 0.1]),
]:
    anchor = np.array(values)
    pair = init_state({
        "anchor": make_probability_map(1, 6, anchor),
        "other": make_probability_map(1, 6, 1.0 - anchor),
    })
    weight = compile_constraints(pair, [SpatialTriplet("other", Relation.RIGHT, "anchor")]).weights[0]
    print(f"   {description:38s} weight = {weight:.4f}")
print(f"""
Scores pass through sigmoid(scale*(v - bias)) with bias={GATE_BIAS},
scale={GATE_SCALE:g} before averaging, so constraints anchored on
confidently predicted objects dominate and empty anchors fade out.
""")
