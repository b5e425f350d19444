"""``deploy.model``: ship a trained model into the database (§5, Figure 11).

The model is serialized, written to Vertica's DFS (replicated, checksummed),
and registered in the ``R_Models`` catalog so SQL prediction functions can
find it.  Owners can grant ``usage``/``modify`` privileges to other database
users.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.deploy.serialize import deserialize_model, serialize_model
from repro.errors import CatalogError
from repro.vertica.models import ModelRecord, Privilege

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster

__all__ = ["deploy_model", "load_model", "drop_model", "grant_model",
           "revoke_model", "export_model", "import_model", "MODEL_DFS_PREFIX"]

MODEL_DFS_PREFIX = "/drmodels/"

# Deserialized-model cache: re-reading and parsing a multi-megabyte blob for
# every UDF instance would dominate prediction time; the cache is keyed by
# (cluster, path, version) so redeploys invalidate naturally.
_MODEL_CACHE: dict[tuple[int, str, int], Any] = {}
_MODEL_CACHE_LOCK = threading.Lock()


def deploy_model(
    cluster: "VerticaCluster",
    model: Any,
    name: str,
    owner: str = "dbadmin",
    description: str = "",
    replace: bool = False,
    training: dict | None = None,
) -> ModelRecord:
    """Serialize ``model`` and store it in the database under ``name``.

    Mirrors Figure 3 line 9: ``deploy.model(model, 'rModel')``.  Returns the
    ``R_Models`` record that ``SELECT * FROM R_Models`` will show.

    ``training`` records the model's provenance — ``{"table", "features",
    "response", "algorithm", "params"}`` — which is what makes the model
    eligible for ``REFRESH MODEL`` (see :func:`repro.deploy.refresh_model`).
    """
    if not name or not name.replace("_", "").isalnum():
        raise CatalogError(
            f"model names must be alphanumeric/underscore, got {name!r}"
        )
    blob = serialize_model(model)
    path = MODEL_DFS_PREFIX + name.lower()
    if cluster.r_models.exists(name) and not replace:
        raise CatalogError(
            f"model {name!r} already exists; pass replace=True to overwrite"
        )
    info = cluster.dfs.write(path, blob, overwrite=True,
                             attributes={"model": name.lower()})
    record = ModelRecord(
        model=name,
        owner=owner,
        type=getattr(model, "model_type", "custom"),
        size=len(blob),
        description=description,
        dfs_path=path,
        training=dict(training) if training is not None else None,
    )
    # Stamp the (re)deploy with its own committed epoch from the cluster
    # clock: the catalog swap is atomic with respect to data mutations, and
    # the record shows which epoch's queries started seeing the new model.
    record.commit_epoch = cluster.catalog.epochs.stamp()
    cluster.r_models.add(record, replace=replace, user=owner)
    with _MODEL_CACHE_LOCK:
        _MODEL_CACHE.pop((id(cluster), path, info.version - 1), None)
    cluster.metrics.counter("models_deployed").add()
    return record


def load_model(
    cluster: "VerticaCluster",
    name: str,
    user: str | None = None,
    from_node: int | None = None,
) -> Any:
    """Fetch and deserialize a deployed model (checking usage privilege).

    ``from_node`` lets a UDF instance prefer the local DFS replica.  Results
    are cached per (cluster, path, version).
    """
    record = cluster.r_models.get(name, user=user, privilege=Privilege.USAGE)
    info = cluster.dfs.stat(record.dfs_path)
    cache_key = (id(cluster), record.dfs_path, info.version)
    with _MODEL_CACHE_LOCK:
        cached = _MODEL_CACHE.get(cache_key)
    if cached is not None:
        return cached
    blob = cluster.dfs.read(record.dfs_path, from_node=from_node)
    model = deserialize_model(blob)
    with _MODEL_CACHE_LOCK:
        _MODEL_CACHE[cache_key] = model
    return model


def drop_model(cluster: "VerticaCluster", name: str, user: str | None = None) -> None:
    """Remove a model's blob and catalog entry (requires modify privilege)."""
    record = cluster.r_models.drop(name, user=user)
    info = cluster.dfs.stat(record.dfs_path)
    cluster.dfs.delete(record.dfs_path)
    with _MODEL_CACHE_LOCK:
        _MODEL_CACHE.pop((id(cluster), record.dfs_path, info.version), None)


def export_model(cluster: "VerticaCluster", name: str, path,
                 user: str | None = None) -> int:
    """Write a deployed model's serialized blob to a local file.

    Lets one database's models move to another (or into version control);
    returns the number of bytes written.
    """
    from pathlib import Path

    record = cluster.r_models.get(name, user=user, privilege=Privilege.USAGE)
    blob = cluster.dfs.read(record.dfs_path)
    Path(path).write_bytes(blob)
    return len(blob)


def import_model(cluster: "VerticaCluster", path, name: str,
                 owner: str = "dbadmin", description: str = "",
                 replace: bool = False) -> ModelRecord:
    """Deploy a model from a blob previously written by :func:`export_model`.

    The blob is validated by deserializing it before registration.
    """
    from pathlib import Path

    blob = Path(path).read_bytes()
    model = deserialize_model(blob)  # validates format and codec
    return deploy_model(cluster, model, name, owner=owner,
                        description=description, replace=replace)


def grant_model(cluster: "VerticaCluster", name: str, user: str,
                privilege: str = Privilege.USAGE,
                granting_user: str | None = None) -> None:
    """Grant a model privilege to a database user."""
    cluster.r_models.grant(name, user, privilege, granting_user=granting_user)


def revoke_model(cluster: "VerticaCluster", name: str, user: str,
                 privilege: str = Privilege.USAGE,
                 revoking_user: str | None = None) -> None:
    """Revoke a model privilege from a database user."""
    cluster.r_models.revoke(name, user, privilege, revoking_user=revoking_user)
