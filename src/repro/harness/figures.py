"""Per-figure regeneration: the series each paper figure plots.

Every function returns a :class:`FigureResult` whose rows pair the paper's
reported value (where the text or figure states one; ``None`` where the
paper only plots without naming the number) with the value our calibrated
models produce for the same configuration.  ``benchmarks/`` additionally
runs scaled-down *functional* versions of each experiment through the real
engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.algorithm_model import (
    model_kmeans_iteration_dr,
    model_kmeans_iteration_r,
    model_regression_dr,
    model_regression_r,
)
from repro.perfmodel.hardware import SL390, HardwareProfile
from repro.perfmodel.predict_model import model_in_db_prediction
from repro.perfmodel.spark_model import (
    model_end_to_end_kmeans,
    model_kmeans_iteration_blas,
    model_spark_kmeans_iteration,
)
from repro.perfmodel.transfer_model import model_vft_transfer, simulate_odbc_transfer

__all__ = ["FigureRow", "FigureResult", "all_figures",
           "fig01", "fig10", "fig12", "fig13", "fig14", "fig15", "fig16",
           "fig17", "fig18", "fig19", "fig20", "fig21"]


@dataclass
class FigureRow:
    """One plotted point: a configuration, a series, and two values."""

    x: str
    series: str
    paper_seconds: float | None
    modelled_seconds: float

    @property
    def relative_error(self) -> float | None:
        if self.paper_seconds is None or self.paper_seconds == 0:
            return None
        return abs(self.modelled_seconds - self.paper_seconds) / self.paper_seconds


@dataclass
class FigureResult:
    """All series of one paper figure."""

    figure_id: str
    title: str
    x_label: str
    rows: list[FigureRow] = field(default_factory=list)
    notes: str = ""

    def add(self, x: str, series: str, modelled: float,
            paper: float | None = None) -> None:
        self.rows.append(FigureRow(x, series, paper, modelled))


def fig01(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 1: extracting data from a database is slow (5-node setup)."""
    result = FigureResult(
        "Fig 1", "DB extraction via ODBC: single R vs 120-way Distributed R",
        "table size",
        notes="Paper states: single R loads 50 GB in close to an hour; "
              "Distributed R with 120 connections needs ~40 min for 150 GB.",
    )
    paper_single = {50: 3300.0, 100: None, 150: None}
    paper_parallel = {50: None, 100: None, 150: 2400.0}
    for gb in (50, 100, 150):
        single = simulate_odbc_transfer(gb, 5, 1, profile)
        parallel = simulate_odbc_transfer(gb, 5, 120, profile)
        result.add(f"{gb} GB", "R (1 ODBC conn)", single.total_seconds,
                   paper_single[gb])
        result.add(f"{gb} GB", "Distributed R (120 ODBC conns)",
                   parallel.total_seconds, paper_parallel[gb])
    return result


def fig10() -> FigureResult:
    """Figure 10: the R_Models catalog table (functional, not timed)."""
    import numpy as np

    from repro.algorithms.glm import hpdglm
    from repro.algorithms.kmeans import hpdkmeans
    from repro.deploy import deploy_model
    from repro.dr import start_session
    from repro.vertica import VerticaCluster

    cluster = VerticaCluster(node_count=2)
    with start_session(node_count=2, instances_per_node=1) as session:
        data = session.darray(npartitions=2)
        rng = np.random.default_rng(0)
        data.fill_from(rng.normal(size=(400, 3)))
        km = hpdkmeans(data, k=3, seed=0, max_iterations=5)
        responses = session.darray(npartitions=2)
        responses.fill_from(rng.normal(size=(400, 1)))
        glm = hpdglm(responses, data)
        deploy_model(cluster, km, "model1", owner="X", description="clustering")
        deploy_model(cluster, glm, "model2", owner="Y", description="forecasting")
    rows = cluster.sql("SELECT model, owner, type, size, description FROM R_Models").rows()
    result = FigureResult(
        "Fig 10", "R_Models catalog after two deployments", "row",
        notes="; ".join(
            f"{model}|{owner}|{type_}|{size}|{description}"
            for model, owner, type_, size, description in rows
        ),
    )
    result.add("rows", "R_Models", float(len(rows)), 2.0)
    return result


def fig12(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 12: ODBC vs VFT on a 5-node cluster."""
    result = FigureResult(
        "Fig 12", "ODBC vs Vertica Fast Transfer, 5-node cluster", "table size",
        notes="VFT loads 150 GB in < 6 min vs ~40 min over ODBC (~6x).",
    )
    paper_odbc = {50: None, 100: None, 150: 2400.0}
    paper_vft = {50: None, 100: None, 150: 330.0}
    for gb in (50, 100, 150):
        odbc = simulate_odbc_transfer(gb, 5, 120, profile)
        vft = model_vft_transfer(gb, 5, 24, profile)
        result.add(f"{gb} GB", "ODBC (120 conns)", odbc.total_seconds, paper_odbc[gb])
        result.add(f"{gb} GB", "VFT (locality)", vft.total_seconds, paper_vft[gb])
    return result


def fig13(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 13: ODBC vs VFT on a 12-node cluster, up to 400 GB."""
    result = FigureResult(
        "Fig 13", "ODBC vs Vertica Fast Transfer, 12-node cluster", "table size",
        notes="288 connections still need ~an hour for 400 GB; VFT < 10 min.",
    )
    paper_odbc = {100: None, 200: None, 300: None, 400: 3500.0}
    paper_vft = {100: None, 200: None, 300: None, 400: 480.0}
    for gb in (100, 200, 300, 400):
        odbc = simulate_odbc_transfer(gb, 12, 288, profile)
        vft = model_vft_transfer(gb, 12, 24, profile)
        result.add(f"{gb} GB", "ODBC (288 conns)", odbc.total_seconds, paper_odbc[gb])
        result.add(f"{gb} GB", "VFT (locality)", vft.total_seconds, paper_vft[gb])
    return result


def fig14(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 14: VFT time breakdown vs R instances per server."""
    result = FigureResult(
        "Fig 14", "VFT breakdown (DB vs R), 400 GB on 12 nodes",
        "R instances per server",
        notes="DB component constant (~300 s); R component shrinks with "
              "instances — at 2 instances nearly half the time is R-side.",
    )
    paper_db = {2: 300.0, 4: 300.0, 8: 300.0, 12: 300.0, 16: 300.0, 24: 300.0}
    for instances in (2, 4, 8, 12, 16, 24):
        vft = model_vft_transfer(400, 12, instances, profile)
        result.add(f"{instances}", "DB part", vft.db_seconds, paper_db[instances])
        result.add(f"{instances}", "R part", vft.r_seconds, None)
        result.add(f"{instances}", "total", vft.total_seconds, None)
    return result


def fig15(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 15: in-database K-means prediction scalability."""
    result = FigureResult(
        "Fig 15", "In-DB K-means prediction, 5-node cluster", "table rows",
        notes="< 20 s at 10 M rows; 318 s at 1 B rows (close to linear).",
    )
    paper = {1e7: 17.0, 1e8: None, 5e8: None, 1e9: 318.0}
    for rows in (1e7, 1e8, 5e8, 1e9):
        model = model_in_db_prediction(rows, "kmeans", 5, profile)
        result.add(f"{rows:.0e}", "KmeansPredict", model.total_seconds, paper[rows])
    return result


def fig16(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 16: in-database linear regression prediction scalability."""
    result = FigureResult(
        "Fig 16", "In-DB GLM prediction, 5-node cluster", "table rows",
        notes="< 10 s at 10 M rows; 206 s at 1 B rows.",
    )
    paper = {1e7: 10.0, 1e8: None, 5e8: None, 1e9: 206.0}
    for rows in (1e7, 1e8, 5e8, 1e9):
        model = model_in_db_prediction(rows, "glm", 5, profile)
        result.add(f"{rows:.0e}", "GlmPredict", model.total_seconds, paper[rows])
    return result


def fig17(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 17: DR vs R K-means on one node, varying cores."""
    result = FigureResult(
        "Fig 17", "K-means per-iteration: R vs Distributed R (1M x 100, K=1000)",
        "cores",
        notes="R flat at ~35 min; DR < 4 min with >= 12 cores (9x); "
              "plateaus past 12 physical cores.",
    )
    paper_r = {1: 2100.0, 12: 2100.0, 24: 2100.0}
    paper_dr = {12: 225.0, 24: 225.0}
    for cores in (1, 2, 4, 8, 12, 16, 24):
        r_time = model_kmeans_iteration_r(1e6, 100, 1000, profile)
        dr_time = model_kmeans_iteration_dr(1e6, 100, 1000, cores=cores,
                                            profile=profile)
        result.add(f"{cores}", "R", r_time.per_iteration_seconds,
                   paper_r.get(cores))
        result.add(f"{cores}", "Distributed R", dr_time.per_iteration_seconds,
                   paper_dr.get(cores))
    return result


def fig18(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 18: DR vs R linear regression on one node (100M x 7)."""
    result = FigureResult(
        "Fig 18", "Regression to convergence: R (QR) vs DR (Newton-Raphson)",
        "cores",
        notes="R > 25 min (matrix decomposition); DR ~8 min at 1 core "
              "to < 1 min at 24 cores (9x).",
    )
    paper_r = {1: 1500.0, 24: 1500.0}
    paper_dr = {1: 480.0, 24: 50.0}
    for cores in (1, 2, 4, 8, 12, 16, 24):
        r_time = model_regression_r(1e8, 7, profile)
        dr_time = model_regression_dr(1e8, 7, cores=cores, iterations=2,
                                      profile=profile)
        result.add(f"{cores}", "R (lm/QR)", r_time.total_seconds, paper_r.get(cores))
        result.add(f"{cores}", "Distributed R (Newton-Raphson)",
                   dr_time.total_seconds, paper_dr.get(cores))
    return result


def fig19(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 19: distributed regression weak scaling (1/4/8 nodes)."""
    result = FigureResult(
        "Fig 19", "Distributed regression weak scaling (100 features, "
        "30M rows/node)", "nodes",
        notes="Each Newton-Raphson iteration < 2 min; converges in ~4 min "
              "(2 iterations); flat under proportional scaling.",
    )
    for nodes, rows in ((1, 3e7), (4, 1.2e8), (8, 2.4e8)):
        iteration = model_regression_dr(rows, 100, cores=24, nodes=nodes,
                                        iterations=1, profile=profile)
        convergence = model_regression_dr(rows, 100, cores=24, nodes=nodes,
                                          iterations=2, profile=profile)
        result.add(f"{nodes}", "per-iteration",
                   iteration.per_iteration_seconds,
                   100.0 if nodes == 8 else None)
        result.add(f"{nodes}", "convergence (2 iters)",
                   convergence.total_seconds,
                   240.0 if nodes == 8 else None)
    return result


def fig20(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 20: DR vs Spark K-means weak scaling."""
    result = FigureResult(
        "Fig 20", "K-means per-iteration: Distributed R vs Spark "
        "(100 features, K=1000, 60M rows/node)", "nodes",
        notes="DR ~16 min/iter at 8 nodes vs Spark >= 21 min (~20% faster); "
              "both scale well under proportional growth.",
    )
    for nodes, rows in ((1, 6e7), (4, 2.4e8), (8, 4.8e8)):
        dr = model_kmeans_iteration_blas(rows, 100, 1000, nodes, profile)
        spark = model_spark_kmeans_iteration(rows, 100, 1000, nodes, profile)
        result.add(f"{nodes}", "Distributed R", dr,
                   960.0 if nodes == 8 else None)
        result.add(f"{nodes}", "Spark", spark,
                   1260.0 if nodes == 8 else None)
    return result


def fig21(profile: HardwareProfile = SL390) -> FigureResult:
    """Figure 21: end-to-end K-means (load + iterate) on 4 nodes."""
    result = FigureResult(
        "Fig 21", "End-to-end K-means, 4 nodes, 240M x 100 (~180 GB)",
        "system",
        notes="Vertica+DR: load 15 min + 16 min/iter; Spark: load 11 min + "
              "21 min/iter — near tie end-to-end; DR-from-ext4 loads in 5 min.",
    )
    paper_load = {"vertica+dr": 900.0, "spark+hdfs": 660.0, "dr+ext4": 300.0}
    paper_iteration = {"vertica+dr": 960.0, "spark+hdfs": 1260.0, "dr+ext4": 960.0}
    systems = model_end_to_end_kmeans(2.4e8, 100, 1000, 4, 180,
                                      iterations=1, profile=profile)
    for name, outcome in systems.items():
        result.add(name, "load", outcome.load_seconds, paper_load[name])
        result.add(name, "per-iteration", outcome.per_iteration_seconds,
                   paper_iteration[name])
        result.add(name, "load + 1 iteration", outcome.total_seconds, None)
    return result


def all_figures(profile: HardwareProfile = SL390,
                include_functional: bool = True) -> list[FigureResult]:
    """Regenerate every figure; ``include_functional=False`` skips Fig 10
    (which runs the real engines rather than the models)."""
    figures = [
        fig01(profile),
        fig12(profile),
        fig13(profile),
        fig14(profile),
        fig15(profile),
        fig16(profile),
        fig17(profile),
        fig18(profile),
        fig19(profile),
        fig20(profile),
        fig21(profile),
    ]
    if include_functional:
        figures.insert(1, fig10())
    return figures
