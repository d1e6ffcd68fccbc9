"""Hop-by-hop dimension-order walker: the mesh routing reference.

:func:`walk` is the scalar route walk :class:`~repro.topology.mesh.
MeshTopology` routed with before its routes became a closed form over
link-position arrays: it steps one coordinate at a time and looks every
hop's :class:`~repro.topology.base.Link` up by its endpoints.
:func:`walk_pair_arrays` and :func:`walk_migration_arrays` rebuild the
network layer's per-pair route rows from those walks exactly as the
route cache built them, so the closed forms can be compared bitwise.
"""

import numpy as np

from repro.topology.base import Link
from repro.topology.mesh import Coord, MeshTopology


def walk(mesh: MeshTopology, src: int, dst: int, rows_first: bool) -> list[Link]:
    """The XY (``rows_first``) or YX dimension-order path, one hop at a time."""
    path: list[Link] = []
    here = mesh.coord_of(src)
    target = mesh.coord_of(dst)

    def step_rows():
        nonlocal here
        while here.x != target.x:
            step = 1 if target.x > here.x else -1
            nxt = Coord(here.x + step, here.y)
            path.append(mesh.link(mesh.device_at(here), mesh.device_at(nxt)))
            here = nxt

    def step_cols():
        nonlocal here
        while here.y != target.y:
            step = 1 if target.y > here.y else -1
            nxt = Coord(here.x, here.y + step)
            path.append(mesh.link(mesh.device_at(here), mesh.device_at(nxt)))
            here = nxt

    if rows_first:
        step_rows()
        step_cols()
    else:
        step_cols()
        step_rows()
    return path


def walk_pair_arrays(
    mesh: MeshTopology, src: int, dst: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """(link indices, per-byte weights, path latency) of one pair.

    The O1TURN route row: XY plus the YX alternate when it differs, each
    carrying half the bytes, merged into sorted unique link indices; the
    latency is the worse route's hop-by-hop sum.
    """
    index = {key: position for position, key in enumerate(mesh.links)}
    primary = walk(mesh, src, dst, rows_first=True)
    alternate = walk(mesh, src, dst, rows_first=False)
    routes = [primary]
    if [link.key for link in alternate] != [link.key for link in primary]:
        routes.append(alternate)
    share = 1.0 / len(routes)
    flat = np.array(
        [index[link.key] for path in routes for link in path], dtype=np.intp
    )
    indices, counts = np.unique(flat, return_counts=True)
    latency = max(sum(link.latency for link in path) for path in routes)
    return indices, share * counts, latency


def walk_migration_arrays(
    mesh: MeshTopology, src: int, dst: int
) -> tuple[np.ndarray, np.ndarray]:
    """(bandwidths, latencies) of the XY route's links, in path order."""
    path = walk(mesh, src, dst, rows_first=True)
    return (
        np.array([link.bandwidth for link in path]),
        np.array([link.latency for link in path]),
    )
