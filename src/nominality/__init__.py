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

import ctypes as _ctypes
import glob as _glob
import os as _os
import sys as _sys
from types import ModuleType as _ModuleType


def _one_blas_thread() -> None:
    """Run numpy's OpenBLAS on one thread, unless the user set a thread count.

    OpenBLAS splits a product across threads in a way that changes its last bits, so
    the sequence model, and every score after it, would depend on the host's CPU count.
    OpenBLAS reads the count from the environment, and starts its threads, when numpy
    loads: so numpy loads with ``OPENBLAS_NUM_THREADS=1``, removed again so that the
    processes a program starts see the user's environment.  Where numpy is already
    loaded, the count is set in the OpenBLAS that numpy's wheels bundle.
    """
    if _os.environ.keys() & {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
        return
    if "numpy" not in _sys.modules:
        _os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy  # noqa: F401
        finally:
            del _os.environ["OPENBLAS_NUM_THREADS"]
        return
    root = _os.path.dirname(_sys.modules["numpy"].__file__)
    for path in (_glob.glob(_os.path.join(root + ".libs", "*openblas*"))  # Linux, Windows
                 + _glob.glob(_os.path.join(root, ".dylibs", "*openblas*"))):  # macOS
        lib = _ctypes.CDLL(path)  # the copy numpy loaded, as it is the same file
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = [_ctypes.c_int], None
                set_threads(1)
                return


_one_blas_thread()

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
