"""Paper-scale performance replay: a calibrated SL390 hardware profile plus
closed-form queueing / analytic models of every mechanism the figures measure."""

from repro.perfmodel.algorithm_model import (
    IterationTime,
    model_kmeans_iteration_dr,
    model_kmeans_iteration_r,
    model_regression_dr,
    model_regression_r,
)
from repro.perfmodel.calibration import (
    PAPER_OBSERVATIONS,
    PaperObservation,
    validate_calibration,
)
from repro.perfmodel.hardware import GB, ROWS_PER_GB, SL390, HardwareProfile, scaled_profile
from repro.perfmodel.predict_model import (
    PredictionResult,
    model_in_db_prediction,
    simulate_prediction_fanout,
)
from repro.perfmodel.spark_model import (
    EndToEndResult,
    model_end_to_end_kmeans,
    model_kmeans_iteration_blas,
    model_spark_kmeans_iteration,
)
from repro.perfmodel.transfer_model import (
    OdbcTransferResult,
    VftTransferResult,
    model_vft_transfer,
    simulate_odbc_transfer,
)

__all__ = [
    "HardwareProfile",
    "SL390",
    "scaled_profile",
    "GB",
    "ROWS_PER_GB",
    "simulate_odbc_transfer",
    "model_vft_transfer",
    "OdbcTransferResult",
    "VftTransferResult",
    "model_in_db_prediction",
    "simulate_prediction_fanout",
    "PredictionResult",
    "model_kmeans_iteration_r",
    "model_kmeans_iteration_dr",
    "model_regression_r",
    "model_regression_dr",
    "IterationTime",
    "model_kmeans_iteration_blas",
    "model_spark_kmeans_iteration",
    "model_end_to_end_kmeans",
    "EndToEndResult",
    "PAPER_OBSERVATIONS",
    "PaperObservation",
    "validate_calibration",
]
