"""camelion: contrast-adaptive tissue segmentation.

Segmenting an image whose acquisition contrast differs from the training
atlases degrades badly. This toolkit adapts the atlases instead of the
input: it alternates segmentation of the fixed input image, two-class MAP
partial-volume estimation, and synthesis of new atlas intensity images
from fixed atlas labels, until the segmentation stops changing. A
deterministic synthetic-phantom harness validates the cross-protocol
consistency claims at desk scale.
"""

from .errors import (
    ArgumentError,
    CamelionError,
    ConfigError,
    CorrelationError,
    DegeneratePairError,
    EstimationError,
    FormatError,
    GeometryError,
    PersistenceError,
    PipelineError,
    RankError,
    TrainingError,
    UnsupportedError,
    ValidationError,
)
from .volumes import (
    AtlasPair,
    LabelVolume,
    PartialVolumeSet,
    ScalarVolume,
    VolumeHeader,
    read_mvf,
    require_same_header,
    validate_partial_volumes,
    write_mvf,
)
from .nifti import import_nifti
from .phantom import (
    PhantomParams,
    ProtocolParams,
    downsample_to_pv,
    generate_cohort,
    generate_label_phantom,
    load_manifest,
    pv_to_labels,
    render,
    restrict_to_top_two,
)
from .pv import PvConfig, class_means, estimate_pv, map_alpha, noise_sigma, second_class_map
from .segmenter import SegmenterConfig, SegmenterModel, SegOutput, atlas_prior, predict, train
from .synth import (
    SynthConfig,
    SynthModel,
    fit_linear,
    fit_regressor,
    load_synth_model,
    save_synth_model,
    synthesize,
)
from .harmonize import LandmarkMap, apply, build_map, landmarks
from .metrics import EvalReport, dice, label_change_fraction, pearson, volumes
from .pipeline import LoopConfig, LoopResult, precompute_atlas_pv, run, run_direct, run_nhm

__version__ = "0.1.0"
