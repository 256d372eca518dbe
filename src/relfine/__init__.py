"""relfine: spatial-relation calibration and fuzzy-logic segmentation refinement.

The pipeline: calibrate a set of <subject, relation, object> triplets
(bidirectional augmentation, polar validation, contradiction resolution),
compile the survivors into a differentiable constraint loss over per-category
probability maps, and refine noisy segmentations by test-time gradient
descent so the predicted masks respect the stated relations.
"""

from .errors import (
    FormatError,
    RelfineError,
    SceneSetMismatchError,
    UnknownCategoryError,
)
from .evaluate import (
    BucketDelta,
    EvalReport,
    compare_runs,
    constraint_satisfaction,
    evaluate_scene,
    iou_per_class,
    macc,
    miou,
    satisfied_flags,
    triplet_satisfied,
    write_bucket_csv,
)
from .gradcheck import GradCheckResult, check_instance, finite_difference_gradient, run_gradcheck
from .grid import (
    LabelMap,
    ProbabilityMap,
    make_probability_map,
    read_grid,
    read_labels,
    read_rsgf,
    write_labels_pgm,
    write_rsgf,
)
from .logic import ConstraintTerms, compile_constraints, fuzzy_implication, spatial_loss
from .refine import (
    AdamState,
    RefineConfig,
    RefineTrace,
    adam_step,
    fidelity_loss,
    objective,
    refine,
)
from .relations import (
    CalibrationAudit,
    CalibrationResult,
    ContradictionPair,
    Relation,
    RelationOracle,
    ScriptedOracle,
    SpatialTriplet,
    TripletSet,
    augment_bidirectional,
    calibrate,
    detect_contradictions,
    empty_triplet_set,
    geometric_oracle,
    load_scripted_oracle,
    load_triplets,
    opposite,
    resolve_contradictions,
    save_triplets,
    scripted_oracle,
    validate_polar,
)
from .scenes import (
    Confusion,
    Placement,
    Scene,
    SceneSpec,
    derive_gt_triplets,
    generate_scene,
    load_scene_bundle,
    random_grid_spec,
    save_scene_bundle,
)
from .state import SegmentationState, argmax_labels, init_state

__version__ = "0.1.0"
