"""Where do spatial constraints help most? A bucketed comparison.

Runs a 36-scene suite at increasing category counts, scores the constrained
run against the unconstrained baseline, and groups the mIoU deltas by
category count, the paper's "images containing multiple categories". The
same buckets go to demos/out/bucketed_analysis.csv.
"""

from pathlib import Path

from relfine import (
    RefineConfig,
    argmax_labels,
    compare_runs,
    evaluate_scene,
    generate_scene,
    random_grid_spec,
    refine,
    write_bucket_csv,
)

SCENES_PER_COUNT = 12

baseline_reports = []
refined_reports = []
for count in (2, 3, 4):
    for i in range(SCENES_PER_COUNT):
        seed = 500 + count * 100 + i
        scene = generate_scene(random_grid_spec(
            seed, n_categories=count, noise_sigma=0.15, confusion_strength=0.5
        ))
        name = f"cats{count}_{i:02d}"
        for alpha, bucket in ((0.0, baseline_reports), (0.1, refined_reports)):
            state, _ = refine(scene.init_probs, scene.gt_triplets, RefineConfig(alpha=alpha))
            bucket.append(evaluate_scene(argmax_labels(state), scene, name=name))

mean_base = sum(r.miou for r in baseline_reports) / len(baseline_reports)
mean_refined = sum(r.miou for r in refined_reports) / len(refined_reports)
print(f"{len(baseline_reports)} scenes: mean mIoU {mean_base:.4f} -> {mean_refined:.4f} "
      f"({(mean_refined - mean_base) * 100:+.2f} points)\n")

deltas = compare_runs(baseline_reports, refined_reports)
print("grouped by category count:")
print("   bucket   scenes   baseline   refined    delta")
for d in deltas:
    print(f"   {d.bucket:>6}   {d.scenes:>6}   {d.baseline_miou:8.4f}  {d.refined_miou:8.4f}  "
          f"{d.delta * 100:+7.2f}")
print()

csv_path = Path(__file__).parent / "out" / "bucketed_analysis.csv"
csv_path.parent.mkdir(exist_ok=True)
write_bucket_csv(csv_path, deltas)
print(f"wrote {csv_path}")
