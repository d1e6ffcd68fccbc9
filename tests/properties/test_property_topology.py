"""Property-based tests for topologies."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.mesh_walk import walk, walk_migration_arrays, walk_pair_arrays
from repro.network.phase import migration_route_arrays, route_pair_arrays, route_rows
from repro.topology.mesh import Coord, MeshTopology, MultiWaferTopology
from repro.topology.switched import DGXClusterTopology

mesh_dims = st.integers(min_value=1, max_value=7)


@st.composite
def mesh_and_pair(draw):
    height = draw(mesh_dims)
    width = draw(mesh_dims)
    mesh = MeshTopology(height, width)
    src = draw(st.integers(0, mesh.num_devices - 1))
    dst = draw(st.integers(0, mesh.num_devices - 1))
    return mesh, src, dst


class TestMeshRouting:
    @given(mesh_and_pair())
    @settings(max_examples=150, deadline=None)
    def test_route_is_shortest_path(self, case):
        mesh, src, dst = case
        assert len(mesh.route(src, dst)) == mesh.manhattan(src, dst)

    @given(mesh_and_pair())
    @settings(max_examples=150, deadline=None)
    def test_route_continuous_and_terminates(self, case):
        mesh, src, dst = case
        path = mesh.route(src, dst)
        here = src
        for link in path:
            assert link.src == here
            here = link.dst
        assert here == dst

    @given(mesh_and_pair())
    @settings(max_examples=100, deadline=None)
    def test_hops_symmetric(self, case):
        mesh, src, dst = case
        assert mesh.hops(src, dst) == mesh.hops(dst, src)

    @given(mesh_and_pair())
    @settings(max_examples=100, deadline=None)
    def test_coord_roundtrip(self, case):
        mesh, src, _ = case
        assert mesh.device_at(mesh.coord_of(src)) == src


@st.composite
def meshes(draw):
    """Single meshes (1xN, Nx1, odd and rectangular sides) and rows of
    one to four wafers."""
    if draw(st.booleans()):
        return MeshTopology(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    return MultiWaferTopology(
        draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    )


def _keys(path):
    return [link.key for link in path]


def _float_bytes(value) -> bytes:
    return np.float64(value).tobytes()


class TestClosedFormRoutesMatchWalker:
    """The closed-form dimension-order routes equal the hop-by-hop walker
    for every ordered pair, down to the route cache's arrays' bytes."""

    @given(meshes())
    @settings(max_examples=25, deadline=None)
    def test_link_routes(self, mesh):
        for src in mesh.devices:
            for dst in mesh.devices:
                assert _keys(mesh.route(src, dst)) == _keys(
                    walk(mesh, src, dst, rows_first=True)
                )
                assert _keys(mesh.route_alternate(src, dst)) == _keys(
                    walk(mesh, src, dst, rows_first=False)
                )

    @given(meshes())
    @settings(max_examples=25, deadline=None)
    def test_prefetched_routes(self, mesh):
        """One batch fills the route memo for every pair."""
        pairs = [(src, dst) for src in mesh.devices for dst in mesh.devices]
        mesh.prefetch_routes(pairs)
        assert len(mesh._route_memo) == len(pairs)
        for src, dst in pairs:
            assert _keys(mesh.route(src, dst)) == _keys(
                walk(mesh, src, dst, rows_first=True)
            )

    @given(meshes())
    @settings(max_examples=25, deadline=None)
    def test_route_rows_bitwise(self, mesh):
        src, dst = np.divmod(np.arange(mesh.num_devices**2), mesh.num_devices)
        offsets, indices, weights, latency = route_rows(mesh, src, dst)
        for row, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            want_indices, want_weights, want_latency = walk_pair_arrays(mesh, s, d)
            got_indices, got_weights, got_latency = route_pair_arrays(mesh, s, d)
            assert got_indices.dtype == want_indices.dtype
            assert got_indices.tobytes() == want_indices.tobytes()
            assert got_weights.tobytes() == want_weights.tobytes()
            assert _float_bytes(got_latency) == _float_bytes(want_latency)
            block = slice(offsets[row], offsets[row + 1])
            assert indices[block].tobytes() == want_indices.tobytes()
            assert weights[block].tobytes() == want_weights.tobytes()
            assert _float_bytes(latency[row]) == _float_bytes(want_latency)

    @given(meshes())
    @settings(max_examples=25, deadline=None)
    def test_migration_arrays_bitwise(self, mesh):
        for src in mesh.devices:
            for dst in mesh.devices:
                got = migration_route_arrays(mesh, src, dst)
                want = walk_migration_arrays(mesh, src, dst)
                for got_part, want_part in zip(got, want):
                    assert got_part.tobytes() == want_part.tobytes()


class TestMultiWafer:
    @given(
        num_wafers=st.integers(1, 4),
        side=st.integers(2, 5),
        x=st.integers(0, 100),
        y=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_wafer_partition(self, num_wafers, side, x, y):
        system = MultiWaferTopology(num_wafers, side, side)
        device = (x % side) * system.width + (y % system.width)
        wafer = system.wafer_of(device)
        assert 0 <= wafer < num_wafers
        assert device in system.wafer_devices(wafer)

    @given(num_wafers=st.integers(1, 4), side=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_local_coord_within_wafer(self, num_wafers, side):
        system = MultiWaferTopology(num_wafers, side, side)
        for device in system.devices:
            local = system.local_coord(device)
            assert 0 <= local.x < side
            assert 0 <= local.y < side


class TestSwitched:
    @given(num_nodes=st.integers(1, 6), src=st.integers(0, 100), dst=st.integers(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_dgx_route_lengths(self, num_nodes, src, dst):
        dgx = DGXClusterTopology(num_nodes)
        src %= dgx.num_devices
        dst %= dgx.num_devices
        path = dgx.route(src, dst)
        if src == dst:
            assert path == []
        elif dgx.node_of(src) == dgx.node_of(dst):
            assert len(path) == 2
        else:
            assert len(path) == 4
