"""Versioned model serialization (no pickle on the wire).

``deploy.model`` needs to ship R model objects into the database: "models
are first serialized and then transferred to the database … stored as binary
blobs in Vertica's distributed file system" (§5).  The envelope here is a
registry-driven binary format:

    magic "RMDL1" | u16 version | type name | metadata JSON | numpy sections

Each model class registers a codec (``to_state`` / ``from_state``) turning
the model into a dict of JSON-able metadata plus named numpy arrays.
Restricting deserialization to registered codecs avoids pickle's
arbitrary-code-execution surface — a real concern for blobs stored in a
shared database.
"""

from __future__ import annotations

import io
import json
import struct
from typing import Any, Callable

import numpy as np

from repro.errors import SerializationError

__all__ = [
    "serialize_model",
    "deserialize_model",
    "register_model_codec",
    "registered_model_types",
    "pack_sufficient_stats",
    "unpack_sufficient_stats",
]

_MAGIC = b"RMDL1"
_VERSION = 1


class _Codec:
    def __init__(self, cls: type,
                 to_state: Callable[[Any], tuple[dict, dict[str, np.ndarray]]],
                 from_state: Callable[[dict, dict[str, np.ndarray]], Any]) -> None:
        self.cls = cls
        self.to_state = to_state
        self.from_state = from_state


_CODECS: dict[str, _Codec] = {}


def register_model_codec(type_name, cls, to_state, from_state) -> None:
    """Register (or replace) the codec for one model type.

    ``to_state(model) -> (metadata_dict, arrays_dict)`` and
    ``from_state(metadata, arrays) -> model``.
    """
    if not type_name:
        raise SerializationError("model type name must be non-empty")
    _CODECS[type_name] = _Codec(cls, to_state, from_state)


def registered_model_types() -> list[str]:
    return sorted(_CODECS)


def _codec_for_model(model: Any) -> tuple[str, _Codec]:
    type_name = getattr(model, "model_type", None)
    if type_name is None:
        raise SerializationError(
            f"{type(model).__name__} has no model_type attribute"
        )
    codec = _CODECS.get(type_name)
    if codec is None:
        raise SerializationError(
            f"no codec registered for model type {type_name!r}; "
            f"known types: {registered_model_types()}"
        )
    return type_name, codec


def serialize_model(model: Any) -> bytes:
    """Serialize a registered model into the versioned envelope."""
    type_name, codec = _codec_for_model(model)
    metadata, arrays = codec.to_state(model)
    try:
        metadata_json = json.dumps(metadata).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"model metadata is not JSON-able: {exc}") from exc
    type_bytes = type_name.encode("utf-8")
    parts = [
        _MAGIC,
        struct.pack("<H", _VERSION),
        struct.pack("<I", len(type_bytes)),
        type_bytes,
        struct.pack("<I", len(metadata_json)),
        metadata_json,
        struct.pack("<I", len(arrays)),
    ]
    for name, array in arrays.items():
        buffer = io.BytesIO()
        np.save(buffer, np.asarray(array), allow_pickle=False)
        payload = buffer.getvalue()
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def deserialize_model(data: bytes) -> Any:
    """Inverse of :func:`serialize_model`."""
    if not data.startswith(_MAGIC):
        raise SerializationError("bad model blob magic")
    offset = len(_MAGIC)
    (version,) = struct.unpack_from("<H", data, offset)
    offset += 2
    if version != _VERSION:
        raise SerializationError(f"unsupported model envelope version {version}")
    (type_length,) = struct.unpack_from("<I", data, offset)
    offset += 4
    type_name = data[offset:offset + type_length].decode("utf-8")
    offset += type_length
    (metadata_length,) = struct.unpack_from("<I", data, offset)
    offset += 4
    try:
        metadata = json.loads(data[offset:offset + metadata_length].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SerializationError(f"corrupt model metadata: {exc}") from exc
    offset += metadata_length
    (array_count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    arrays: dict[str, np.ndarray] = {}
    for _ in range(array_count):
        (name_length,) = struct.unpack_from("<H", data, offset)
        offset += 2
        name = data[offset:offset + name_length].decode("utf-8")
        offset += name_length
        (payload_length,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        payload = data[offset:offset + payload_length]
        if len(payload) != payload_length:
            raise SerializationError(f"truncated array section {name!r}")
        offset += payload_length
        arrays[name] = np.load(io.BytesIO(payload), allow_pickle=False)
    codec = _CODECS.get(type_name)
    if codec is None:
        raise SerializationError(
            f"blob is a {type_name!r} model but no codec is registered"
        )
    return codec.from_state(metadata, arrays)


# -- built-in codecs --------------------------------------------------------


def pack_sufficient_stats(arrays: dict, metadata: dict, stats: dict | None) -> None:
    """Flatten a model's additive sufficient statistics into array sections.

    Stored under ``ss.<key>`` names with the key list in metadata, so codecs
    stay backward compatible with blobs written before stats existed.
    """
    if stats is None:
        return
    metadata["stat_keys"] = sorted(stats)
    for key in stats:
        arrays[f"ss.{key}"] = np.asarray(stats[key])


def unpack_sufficient_stats(metadata: dict, arrays: dict) -> dict | None:
    """Inverse of :func:`pack_sufficient_stats` (None when absent)."""
    keys = metadata.get("stat_keys")
    if not keys:
        return None
    return {key: arrays[f"ss.{key}"] for key in keys}


def _register_builtin_codecs() -> None:
    from repro.algorithms.glm import GlmModel
    from repro.algorithms.kmeans import KMeansModel
    from repro.algorithms.naive_bayes import NaiveBayesModel
    from repro.algorithms.random_forest import DecisionTree, RandomForestModel

    def glm_to_state(model: GlmModel):
        metadata = {
            "family": model.family,
            "link": model.link,
            "intercept": model.intercept,
            "iterations": model.iterations,
            "deviance": model.deviance,
            "null_deviance": model.null_deviance,
            "converged": model.converged,
            "n_observations": model.n_observations,
            "feature_names": model.feature_names,
            "has_se": model.standard_errors is not None,
        }
        arrays = {"coefficients": model.coefficients}
        if model.standard_errors is not None:
            arrays["standard_errors"] = model.standard_errors
        pack_sufficient_stats(arrays, metadata, model.sufficient_stats)
        return metadata, arrays

    def glm_from_state(metadata, arrays):
        return GlmModel(
            coefficients=arrays["coefficients"],
            family=metadata["family"],
            link=metadata["link"],
            intercept=metadata["intercept"],
            iterations=metadata["iterations"],
            deviance=metadata["deviance"],
            null_deviance=metadata["null_deviance"],
            converged=metadata["converged"],
            n_observations=metadata["n_observations"],
            feature_names=list(metadata["feature_names"]),
            standard_errors=arrays.get("standard_errors"),
            sufficient_stats=unpack_sufficient_stats(metadata, arrays),
        )

    register_model_codec("glm", GlmModel, glm_to_state, glm_from_state)

    def naive_bayes_to_state(model: NaiveBayesModel):
        metadata = {"n_observations": model.n_observations}
        arrays = {
            "log_priors": model.class_log_priors,
            "means": model.means,
            "variances": model.variances,
        }
        pack_sufficient_stats(arrays, metadata, model.sufficient_stats)
        return metadata, arrays

    def naive_bayes_from_state(metadata, arrays):
        return NaiveBayesModel(
            class_log_priors=arrays["log_priors"],
            means=arrays["means"],
            variances=arrays["variances"],
            n_observations=metadata["n_observations"],
            sufficient_stats=unpack_sufficient_stats(metadata, arrays),
        )

    register_model_codec(
        "naivebayes", NaiveBayesModel, naive_bayes_to_state, naive_bayes_from_state
    )

    def kmeans_to_state(model: KMeansModel):
        metadata = {
            "inertia": model.inertia,
            "iterations": model.iterations,
            "converged": model.converged,
            "n_observations": model.n_observations,
        }
        arrays = {"centers": model.centers, "cluster_sizes": model.cluster_sizes}
        return metadata, arrays

    def kmeans_from_state(metadata, arrays):
        return KMeansModel(
            centers=arrays["centers"],
            inertia=metadata["inertia"],
            iterations=metadata["iterations"],
            converged=metadata["converged"],
            n_observations=metadata["n_observations"],
            cluster_sizes=arrays["cluster_sizes"],
        )

    register_model_codec("kmeans", KMeansModel, kmeans_to_state, kmeans_from_state)

    def forest_to_state(model: RandomForestModel):
        metadata = {
            "task": model.task,
            "n_classes": model.n_classes,
            "n_features": model.n_features,
            "n_observations": model.n_observations,
            "n_trees": model.n_trees,
        }
        arrays: dict[str, np.ndarray] = {}
        for i, tree in enumerate(model.trees):
            arrays[f"t{i}.feature"] = tree.feature
            arrays[f"t{i}.threshold"] = tree.threshold
            arrays[f"t{i}.left"] = tree.left
            arrays[f"t{i}.right"] = tree.right
            arrays[f"t{i}.value"] = tree.value
        return metadata, arrays

    def forest_from_state(metadata, arrays):
        trees = []
        for i in range(metadata["n_trees"]):
            trees.append(DecisionTree(
                feature=arrays[f"t{i}.feature"],
                threshold=arrays[f"t{i}.threshold"],
                left=arrays[f"t{i}.left"],
                right=arrays[f"t{i}.right"],
                value=arrays[f"t{i}.value"],
                task=metadata["task"],
            ))
        return RandomForestModel(
            trees=trees,
            task=metadata["task"],
            n_classes=metadata["n_classes"],
            n_features=metadata["n_features"],
            n_observations=metadata["n_observations"],
        )

    register_model_codec(
        "randomforest", RandomForestModel, forest_to_state, forest_from_state
    )


_register_builtin_codecs()
