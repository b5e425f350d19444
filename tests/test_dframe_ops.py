"""Tests for distributed GLM prediction."""

import numpy as np
import pytest

from repro.algorithms import hpdglm
from repro.errors import ModelError
from repro.workloads import make_regression


class TestDistributedGlmPredict:
    def test_matches_local_predict(self, session):
        data = make_regression(800, 3, noise_scale=0.1, seed=70)
        x = session.darray(npartitions=3)
        x.fill_from(data.features)
        y = session.darray(npartitions=3,
                           worker_assignment=[x.worker_of(i) for i in range(3)])
        boundaries = np.linspace(0, 800, 4).astype(int)
        for i in range(3):
            y.fill_partition(
                i, data.responses[boundaries[i]:boundaries[i + 1]].reshape(-1, 1))
        model = hpdglm(y, x)
        distributed = model.predict_distributed(x)
        assert distributed.npartitions == x.npartitions
        assert np.allclose(distributed.collect().ravel(),
                           model.predict(data.features))
        for i in range(3):
            assert distributed.worker_of(i) == x.worker_of(i)

    def test_wrong_width_rejected(self, session):
        data = make_regression(100, 2, seed=71)
        x = session.darray(npartitions=2)
        x.fill_from(data.features)
        y = session.darray(npartitions=2,
                           worker_assignment=[x.worker_of(i) for i in range(2)])
        y.fill_from(data.responses.reshape(-1, 1))
        model = hpdglm(y, x)
        wide = session.darray(npartitions=2)
        wide.fill_from(np.ones((10, 5)))
        with pytest.raises(ModelError):
            model.predict_distributed(wide)
