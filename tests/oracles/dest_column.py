"""Holder-by-holder reference for the all-to-all pricers' operator columns.

These are the scalar loops :class:`~repro.network.alltoall.
SparseAllToAllPricer` and :class:`~repro.network.alltoall.
LayeredAllToAllPricer` built their ``(group, dest) -> link`` entries with
before both read whole destination columns from one batched route
lookup: every ``(group, dest)`` cell walks its holder list in table order,
looks each holder pair's route row up with :func:`route_pair_arrays`, and
adds the fraction-weighted row into a scratch vector of link slots.
"""

import numpy as np

from repro.network.phase import route_pair_arrays


def scalar_dest_rows(mapping, dest: int):
    """``(link_idx, weight, group, latency)`` of one destination column."""
    topology = mapping.topology
    table = mapping.token_holder_table()
    num_groups = mapping.dp
    num_links = len(topology.links)
    scratch = np.zeros(2 * num_links)
    idx_parts: list[np.ndarray] = []
    weight_parts: list[np.ndarray] = []
    group_parts: list[np.ndarray] = []
    latency = np.zeros((2, num_groups))
    for group in range(num_groups):
        touched: list[np.ndarray] = []
        for holder, fraction in table.entries(group, dest):
            if holder == dest:
                continue
            idx, weights, path_latency = route_pair_arrays(topology, holder, dest)
            scratch[idx] += fraction * weights
            touched.append(idx)
            if path_latency > latency[0, group]:
                latency[0, group] = path_latency
            idx, weights, path_latency = route_pair_arrays(topology, dest, holder)
            scratch[num_links + idx] += fraction * weights
            touched.append(num_links + idx)
            if path_latency > latency[1, group]:
                latency[1, group] = path_latency
        if touched:
            cols = np.unique(np.concatenate(touched))
            values = scratch[cols].copy()
            scratch[cols] = 0.0
            idx_parts.append(cols)
            weight_parts.append(values)
            group_parts.append(np.full(cols.size, group, dtype=np.intp))
    if not idx_parts:
        return (
            np.empty(0, dtype=np.intp),
            np.empty(0),
            np.empty(0, dtype=np.intp),
            latency,
        )
    return (
        np.concatenate(idx_parts),
        np.concatenate(weight_parts),
        np.concatenate(group_parts),
        latency,
    )


def scalar_dense_operator(mapping) -> tuple[np.ndarray, np.ndarray]:
    """``(operator, cell_latency)`` of the dense pricer, cell by cell.

    ``operator`` is ``(groups * devices, 2K)`` and ``cell_latency``
    ``(2, groups, devices)``, as :class:`LayeredAllToAllPricer` stores them.
    """
    topology = mapping.topology
    table = mapping.token_holder_table()
    groups, devices = mapping.dp, topology.num_devices
    num_links = len(topology.links)
    operator = np.zeros((groups, devices, 2 * num_links))
    cell_latency = np.zeros((2, groups, devices))
    for group in range(groups):
        for dest in range(devices):
            for holder, fraction in table.entries(group, dest):
                if holder == dest:
                    continue
                idx, weights, latency = route_pair_arrays(topology, holder, dest)
                operator[group, dest, idx] += fraction * weights
                if latency > cell_latency[0, group, dest]:
                    cell_latency[0, group, dest] = latency
                idx, weights, latency = route_pair_arrays(topology, dest, holder)
                operator[group, dest, num_links + idx] += fraction * weights
                if latency > cell_latency[1, group, dest]:
                    cell_latency[1, group, dest] = latency
    return operator.reshape(groups * devices, 2 * num_links), cell_latency
