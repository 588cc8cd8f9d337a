"""Workload profiling toolkit: density-based profile groups from usage
traces, metadata-only classification of new workloads, behavior prediction
from profile statistics, and a feedback loop that re-clusters when quality
decays."""

from .boosting import BoostingParams
from .classifier import (
    ClassifierModel,
    build_training_set,
    classify,
    classify_batch,
    feature_importance,
    train,
)
from .dbscan import dbscan
from .encoding import EncoderVocabulary, build_vocabulary
from .feedback import (
    DeltaSpec,
    FeedbackConfig,
    ReclusterSpec,
    next_trigger,
    run_feedback,
    window_fronts,
)
from .gridsearch import GridSpec, grid_search
from .hdbscan import hdbscan
from .metrics import AcquiresScore, ClassReport, acquires, class_report, davies_bouldin, silhouette_mean
from .predictor import (
    PredictionPolicy,
    RmseReport,
    evaluate_holdout,
    predict,
)
from .preprocess import (
    HopkinsResult,
    TransformSpec,
    apply_transform,
    fit_transform,
    hopkins,
    skewness,
    stratified_sample,
)
from .profiles import ClusteringConfig, FeatureStats, ProfileGroup, ProfileSet, build_profiles
from .trace_model import (
    Dataset,
    FeatureMatrix,
    MetadataBlock,
    TraceSchema,
    load_trace,
    runtime_matrix,
    write_trace,
)

__version__ = "0.1.0"
