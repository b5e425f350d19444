"""Fraud detection: the extension features working together.

A payments scenario exercising the features this reproduction adds beyond
the paper's minimum: CSV ingest (`COPY`), SQL joins for feature assembly,
Gaussian naive Bayes trained in Distributed R and scored in the database
with the built-in ``nbPredict``, k-safe tables, and scoring that keeps
working through a node failure.

Run with ``python examples/fraud_detection.py``.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import VerticaCluster, start_session
from repro.algorithms import accuracy, hpdnaivebayes
from repro.deploy import deploy_model
from repro.vertica import HashSegmentation, copy_from_csv, write_csv

N_ACCOUNTS = 2_000
N_TRANSACTIONS = 40_000
FEATURES = ["amount_z", "hour_z", "velocity_z"]


def synth_data(rng: np.random.Generator):
    accounts = {
        "account_id": np.arange(N_ACCOUNTS),
        "risk_score": rng.uniform(0, 1, N_ACCOUNTS),
        "country": np.asarray(
            rng.choice(["us", "de", "jp", "br"], N_ACCOUNTS), dtype=object),
    }
    is_fraud = rng.random(N_TRANSACTIONS) < 0.08
    transactions = {
        "txn_id": np.arange(N_TRANSACTIONS),
        "account_id": rng.integers(0, N_ACCOUNTS, N_TRANSACTIONS),
        "amount_z": rng.normal(size=N_TRANSACTIONS) + 2.0 * is_fraud,
        "hour_z": rng.normal(size=N_TRANSACTIONS) + 1.5 * is_fraud,
        "velocity_z": rng.normal(size=N_TRANSACTIONS) + 2.5 * is_fraud,
        "label": is_fraud.astype(np.int64),
    }
    return accounts, transactions


def main() -> None:
    rng = np.random.default_rng(13)
    accounts, transactions = synth_data(rng)

    cluster = VerticaCluster(node_count=4)

    # --- ingest: accounts arrive as a CSV extract, transactions via ETL ----
    cluster.create_table_like("accounts", accounts, k_safety=1)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "accounts.csv"
        write_csv(csv_path, accounts)
        loaded = copy_from_csv(cluster, "accounts", csv_path)
    print(f"accounts loaded from CSV: {loaded:,}")
    cluster.create_table_like("transactions", transactions,
                              HashSegmentation("account_id"), k_safety=1)
    cluster.bulk_load("transactions", transactions)

    # --- SQL feature assembly: join transactions to account risk -----------
    risky = cluster.sql(
        "SELECT a.country, COUNT(*) AS txns, AVG(t.label) AS fraud_rate "
        "FROM transactions t JOIN accounts a ON t.account_id = a.account_id "
        "WHERE a.risk_score > 0.8 "
        "GROUP BY a.country ORDER BY fraud_rate DESC"
    )
    print("fraud rate by country (high-risk accounts):")
    for country, txns, rate in risky.rows():
        print(f"  {country}: {rate:.3f} over {txns:,} transactions")

    # --- train naive Bayes in Distributed R ---------------------------------
    with start_session(node_count=4, instances_per_node=2) as session:
        from repro.transfer import db2darray_with_response

        y, x = db2darray_with_response(
            cluster, "transactions", "label", FEATURES, session)
        model = hpdnaivebayes(y, x)
        full = np.column_stack([transactions[f] for f in FEATURES])
        train_accuracy = accuracy(transactions["label"], model.predict(full))
        print(f"naive Bayes train accuracy: {train_accuracy:.3f}")

    deploy_model(cluster, model, "fraud_nb", description="fraud screening")
    print(cluster.sql(
        "SELECT model, type, size FROM R_Models WHERE model = 'fraud_nb'"
    ).rows())

    # --- in-database scoring, before and during a node failure --------------
    query = (
        f"SELECT nbPredict({', '.join(FEATURES)} "
        "USING PARAMETERS model='fraud_nb') "
        "OVER (PARTITION BEST) FROM transactions"
    )
    flagged = int(cluster.sql(query).column("label").sum())
    print(f"flagged {flagged:,} of {N_TRANSACTIONS:,} transactions")

    cluster.fail_node(2)
    flagged_after = int(cluster.sql(query).column("label").sum())
    buddy_scans = int(cluster.metrics.counter("buddy_scans").value)
    print(f"node 2 failed: still flagged {flagged_after:,} "
          f"(identical: {flagged == flagged_after}; "
          f"{buddy_scans} buddy-replica scans)")
    print(cluster.sql("EXPLAIN " + query).column("plan")[0])


if __name__ == "__main__":
    main()
