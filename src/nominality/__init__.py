"""Nominality-gated anomaly scoring for multivariate time series.

The package pairs a point-wise reconstructor (which flags individual
out-of-distribution readings) with a sequence reconstructor (which predicts
each stretch of points from its surroundings and therefore reacts to broken
temporal structure).  Comparing the two reconstructions yields a per-point
nominality score; gating the point-based anomaly score with it produces an
induced score that propagates evidence across anomalous stretches without
flooding normal neighborhoods.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .config import TrigSpec, trig_preset
from .errors import (
    ConfigError,
    DataError,
    DegenerateLabels,
    EmptyInput,
    LabelError,
    NominalityError,
    NonFiniteValue,
    NumericError,
    ParseError,
    ShapeError,
    SingularSystem,
    TrainingDiverged,
)
from .evaluation import (
    EvalReport,
    auc,
    best_f1,
    confusion,
    evaluate,
    pa_best_f1,
    point_adjust,
)
from .reconstructors import (
    PointHyperparams,
    PointModel,
    ReconstructionPair,
    SequenceModel,
    TrainedModels,
    load_model,
    make_pair,
    reconstruct_points,
    reconstruct_sequence,
    save_model,
    train_point_model,
    train_sequence_model,
)
from .scoring import (
    GateConfig,
    anomaly_score,
    gate,
    induced_anomaly_score,
    nominality_score,
    resolve_theta,
    sequence_anomaly_score,
    smoothed_score,
    theta_from_percentile,
)
from .series import (
    LabeledSeries,
    MinMaxStats,
    ScoreSeries,
    downsample,
    load_csv,
    minmax_apply,
    minmax_fit,
    save_csv,
)
from .synthetic import gen_trig

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
