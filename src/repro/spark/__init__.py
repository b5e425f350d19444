"""The Spark-on-HDFS comparator: an executor pool over the DFS and an RDD
that :func:`~repro.algorithms.kmeans.hpdkmeans` runs on unchanged."""

from repro.spark.context import RDD, SparkContext

__all__ = ["SparkContext", "RDD"]
