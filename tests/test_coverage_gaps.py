"""Tests for thinly-covered corners: simkit failure paths, baseline
convergence, and the UDTF context."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, SimulationError
from repro.rbase import glm_fit
from repro.simkit import Environment


class TestSimkitFailurePaths:
    def test_run_until_event_propagates_failure(self):
        env = Environment()
        event = env.event()

        def failer(env):
            yield env.timeout(1.0)
            event.fail(RuntimeError("sim failed"))

        env.process(failer(env))
        with pytest.raises(RuntimeError, match="sim failed"):
            env.run(event)

    def test_run_until_never_triggered_event(self):
        env = Environment()
        dangling = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError, match="never triggered"):
            env.run(dangling)

    def test_any_of_failure_propagates(self):
        env = Environment()
        caught = []

        def worker(env):
            bad = env.event()
            bad.fail(ValueError("broken"))
            try:
                yield env.any_of([bad, env.timeout(10)])
            except ValueError as exc:
                caught.append(str(exc))

        env.process(worker(env))
        env.run()
        assert caught == ["broken"]

    def test_fail_requires_exception_instance(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_unhandled_process_exception_surfaces_from_run(self):
        env = Environment()

        def crasher(env):
            yield env.timeout(1.0)
            raise KeyError("lost")

        env.process(crasher(env))
        with pytest.raises(KeyError):
            env.run()


class TestRbaseConvergence:
    def test_glm_fit_raises_on_iteration_budget(self):
        rng = np.random.default_rng(90)
        x = rng.normal(size=(500, 2))
        y = (rng.random(500) < 0.5).astype(float)
        with pytest.raises(ConvergenceError):
            glm_fit(x, y, family="binomial", max_iterations=1)

    def test_glm_fit_validates_response_domain(self):
        from repro.errors import ModelError

        x = np.ones((10, 1))
        with pytest.raises(ModelError):
            glm_fit(x, np.full(10, 2.0), family="binomial")


class TestUdtfContext:
    def test_context_reads_local_dfs_replica(self, cluster):
        from repro.vertica.udtf import UdtfContext

        cluster.dfs.write("/blob", b"payload")
        ctx = UdtfContext(cluster=cluster, node_index=0, instance_index=0,
                          instance_count=1)
        assert ctx.read_dfs("/blob") == b"payload"

    def test_function_udtf_requires_name(self):
        from repro.errors import ExecutionError
        from repro.vertica.udtf import FunctionBasedUdtf

        with pytest.raises(ExecutionError):
            FunctionBasedUdtf("", lambda ctx, args, params: None)
