# Developer entry points. `make lint` always runs reprolint (stdlib-only);
# ruff and mypy run when installed (pip install -e '.[lint]') and are
# skipped with a notice otherwise, so the target works in minimal
# environments and is strict in CI.

PYTHON ?= python

.PHONY: test test-faults test-serving test-aqp lint lint-sql reprolint ruff mypy race docscheck experiments bench-ml bench-smoke benchmarks-smoke reach all

all: lint test

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

reprolint:
	$(PYTHON) -m reprolint src tests

ruff:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tools tests; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[lint]')"; \
	fi

mypy:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/dr src/repro/transfer \
			src/repro/vertica/sql src/repro/obs; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[lint]')"; \
	fi

# Run the SQL semantic analyzer (schema-less lenient mode) over every SQL
# string literal in tests/, examples/ and benchmarks/ and over the .sql
# corpora (bench/olap_queries.sql): zero analysis errors allowed.
lint-sql:
	PYTHONPATH=src $(PYTHON) tools/sql_lint.py

lint: reprolint ruff mypy lint-sql

# Run the whole suite under instrumented locks: any lock-order inversion
# in the threaded engines fails deterministically instead of deadlocking.
race:
	REPROLINT_LOCK_CHECK=1 PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The failure-scenario matrix under the lock probe.  Set REPRO_FAULT_SEED
# to replay a CI rotating-seed run locally.
test-faults:
	REPROLINT_LOCK_CHECK=1 PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_faults.py

# Execute every fenced python block in README.md and docs/*.md, so the
# documented examples cannot drift from the code they demonstrate.
docscheck:
	PYTHONPATH=src $(PYTHON) tools/docscheck.py

# Rewrite EXPERIMENTS.md (paper vs modelled figures) from the harness;
# tier-1 fails when the committed file is not what this produces.
experiments:
	PYTHONPATH=src $(PYTHON) -m repro.harness --write EXPERIMENTS.md >/dev/null

# The serving layer: the unit/concurrency suite under the lock probe, then
# the 100+-session mixed-workload benchmark (drops BENCH_serving.json with
# QPS and p50/p99 under benchmarks/.traces/).
test-serving:
	REPROLINT_LOCK_CHECK=1 PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_serving.py
	PYTHONPATH=src $(PYTHON) -m pytest -x -q benchmarks/bench_serving.py

# Approximate query processing: the sample/WITHIN suite under the lock
# probe, then the exact-vs-approximate benchmark (drops BENCH_aqp.json
# with speedup and realized error under benchmarks/.traces/).
test-aqp:
	REPROLINT_LOCK_CHECK=1 PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_aqp.py
	PYTHONPATH=src $(PYTHON) -m pytest -x -q benchmarks/bench_aqp.py

# The ML ablations: incremental REFRESH MODEL vs full refit by delta size,
# and the Figure 18 solver comparison through the unified fold kernel.
# Each module drops BENCH_*.json datapoints under benchmarks/.traces/.
bench-ml:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q \
		benchmarks/bench_ablation_incremental.py \
		benchmarks/bench_ablation_solvers.py

# Every module under benchmarks/ (ablations, figure reproductions, serving,
# AQP, solvers) once, timing disabled and no trace artifacts: a change to an
# engine API the benchmarks call fails here instead of going unnoticed.
benchmarks-smoke:
	REPRO_TRACE_DIR=off PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks --benchmark-disable

# The repo benchmark (`python3 -m bench`, contract in BENCHMARK.json) at
# smoke scale: it drives the engine through the documented public API only
# and lives outside tier-1 testpaths, so an engine refactor that breaks that
# contract fails here rather than in the benchmark driver.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q bench/test_bench.py

# Which src/repro functions only the tests reach: runs the harness, every
# example, bench/test_bench.py, the benchmarks smoke and docscheck, then
# tier-1, each traced, and lists the functions reached only by tier-1 and
# those reached by nothing, with their line counts.  Not part of CI.
reach:
	PYTHONPATH=src $(PYTHON) tools/reach.py
