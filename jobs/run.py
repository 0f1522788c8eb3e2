"""spark-submit entrypoint reproducing one of the paper's experiments.

Usage: spark-submit jobs/run.py <experiment>   (or: python jobs/run.py <experiment>)

``<experiment>`` is one of table1..table5, throughput, scalability or
redundancy; it runs ``repro.experiments.<experiment>.main(spark=...)``.
Scale via the REPRO_N env var (stream length; default 2,000,000).
"""
import argparse
import importlib

from pyspark.sql import SparkSession

EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "throughput",
    "scalability",
    "redundancy",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiment", choices=EXPERIMENTS)
    name = parser.parse_args().experiment
    experiment = importlib.import_module(f"repro.experiments.{name}")
    spark = (
        SparkSession.builder.appName(f"qlove-{name}")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    try:
        experiment.main(spark=spark)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
