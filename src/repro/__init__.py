"""repro: a reproduction of "Large-scale Predictive Analytics in Vertica:
Fast Data Transfer, Distributed Model Creation, and In-database Prediction"
(Prasad et al., SIGMOD 2015).

The public API mirrors the paper's workflow (Figure 3)::

    from repro import (VerticaCluster, start_session, db2darray_with_response,
                       hpdglm, deploy_model)

    cluster = VerticaCluster(node_count=4)
    ...                                     # ETL into the database
    session = start_session(node_count=4)   # distributedR_start()
    y, x = db2darray_with_response(cluster, "mytable", "y", ["a", "b"], session)
    model = hpdglm(y, x, family="binomial")  # distributed Newton-Raphson
    deploy_model(cluster, model, "rModel")   # deploy.model(...)
    cluster.sql("SELECT glmPredict(a, b USING PARAMETERS model='rModel') "
                "OVER (PARTITION BEST) FROM mytable2")

Subpackages: :mod:`repro.vertica` (the MPP columnar database),
:mod:`repro.dr` (the Distributed R engine), :mod:`repro.transfer` (VFT and
the ODBC baselines), :mod:`repro.algorithms` (distributed ML),
:mod:`repro.deploy` (model deployment), :mod:`repro.yarn` (resource
management), :mod:`repro.spark` / :mod:`repro.rbase` (comparators),
:mod:`repro.perfmodel` (paper-scale performance replay), and
:mod:`repro.workloads` / :mod:`repro.harness` (experiments).
"""

from repro.algorithms import (
    cv_hpdglm,
    hpdglm,
    hpdkmeans,
    hpdrandomforest,
)
from repro.deploy import deploy_model, load_model
from repro.dr import DRSession, clone, partitionsize, start_session
from repro.errors import ReproError
from repro.transfer import (
    db2darray,
    db2darray_with_response,
    db2dframe,
    load_via_parallel_odbc,
    load_via_single_odbc,
)
from repro.vertica import VerticaCluster

__version__ = "1.0.0"

__all__ = [
    "VerticaCluster",
    "DRSession",
    "start_session",
    "db2darray",
    "db2dframe",
    "db2darray_with_response",
    "load_via_single_odbc",
    "load_via_parallel_odbc",
    "hpdglm",
    "cv_hpdglm",
    "hpdkmeans",
    "hpdrandomforest",
    "deploy_model",
    "load_model",
    "clone",
    "partitionsize",
    "ReproError",
    "__version__",
]
