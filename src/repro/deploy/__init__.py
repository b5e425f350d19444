"""In-database model deployment and prediction (paper §5)."""

from repro.deploy.deploy import (
    deploy_model,
    drop_model,
    grant_model,
    load_model,
    revoke_model,
)
from repro.deploy.predict_functions import (
    GlmPredict,
    KmeansPredict,
    NbPredict,
    RfPredict,
    make_prediction_function,
    standard_prediction_functions,
)
from repro.deploy.refresh import RefreshResult, refresh_model
from repro.deploy.serialize import (
    deserialize_model,
    register_model_codec,
    registered_model_types,
    serialize_model,
)

__all__ = [
    "deploy_model",
    "load_model",
    "drop_model",
    "grant_model",
    "revoke_model",
    "serialize_model",
    "deserialize_model",
    "register_model_codec",
    "registered_model_types",
    "refresh_model",
    "RefreshResult",
    "GlmPredict",
    "KmeansPredict",
    "RfPredict",
    "NbPredict",
    "make_prediction_function",
    "standard_prediction_functions",
]
