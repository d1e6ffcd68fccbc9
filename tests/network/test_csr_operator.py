"""CSR fast-path equivalence for the layered all-to-all volume product.

The dense ``(groups * devices, 2 * links)`` operator is re-stored as
scipy CSR when the operator is sparse enough — the per-iteration product
keeps the same terms in CSR summation order, so volumes are pinned to the
dense matmul at ~1e-15 relative.
"""

import numpy as np

from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.network.alltoall import (
    CSR_OPERATOR_MAX_DENSITY,
    LayeredAllToAllPricer,
    _csr_operator,
)
from repro.topology.mesh import MeshTopology


def make_pricer():
    mapping = ERMapping(
        MeshTopology(4, 8), ParallelismConfig(tp=4, dp=8, tp_shape=(2, 2))
    )
    return LayeredAllToAllPricer(mapping)


class TestCsrOperator:
    def test_dense_operator_not_converted(self):
        dense = np.ones((8, 8))
        assert _csr_operator(dense) is None

    def test_sparse_operator_converted(self):
        sparse = np.zeros((64, 64))
        sparse[::8, ::8] = 0.5
        csr = _csr_operator(sparse)
        assert csr is not None
        np.testing.assert_array_equal(csr.toarray(), sparse)

    def test_density_threshold_boundary(self):
        op = np.zeros((10, 10))
        nnz = int(CSR_OPERATOR_MAX_DENSITY * op.size)
        op.reshape(-1)[: nnz + 1] = 1.0
        assert _csr_operator(op) is None
        op.reshape(-1)[nnz] = 0.0
        assert _csr_operator(op) is not None


class TestCsrVolumesMatchDense:
    def test_real_topology_operator_is_sparse_enough(self):
        pricer = make_pricer()
        assert pricer.operator_csr is not None

    def test_link_volumes_match_dense_product(self, monkeypatch):
        pricer = make_pricer()
        assert pricer.operator_csr is not None
        rng = np.random.default_rng(3)
        layers, groups, experts = 5, pricer.num_groups, 16
        demand = rng.integers(0, 50, size=(layers, groups, experts)).astype(
            float
        )
        shares = rng.random((layers, experts, pricer.num_devices))
        shares /= shares.sum(axis=-1, keepdims=True)
        cells, volumes = pricer.link_volumes(demand, shares)

        monkeypatch.setattr(pricer, "operator_csr", None)
        cells_dense, volumes_dense = pricer.link_volumes(demand, shares)
        np.testing.assert_array_equal(cells, cells_dense)
        np.testing.assert_allclose(volumes, volumes_dense, rtol=1e-12)

    def test_durations_match_dense_product(self, monkeypatch):
        pricer = make_pricer()
        rng = np.random.default_rng(9)
        layers, experts = 4, 16
        demand = rng.integers(0, 20, size=(layers, pricer.num_groups, experts))
        demand = demand.astype(float)
        shares = np.zeros((layers, experts, pricer.num_devices))
        shares[:, np.arange(experts), np.arange(experts) % pricer.num_devices] = 1.0
        with_csr = pricer.durations(demand, shares)
        monkeypatch.setattr(pricer, "operator_csr", None)
        without = pricer.durations(demand, shares)
        np.testing.assert_allclose(with_csr, without, rtol=1e-12)
