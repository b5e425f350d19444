"""Tests for thinly-covered corners: baseline convergence and the UDTF
context."""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.rbase import glm_fit


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
