"""Blocked ``np.add.reduceat`` reference for the sparse all-to-all tier.

This is the segmented reduction :class:`~repro.network.alltoall.
SparseAllToAllPricer` priced layer stacks with before its gathers became
CSR operators.  It rebuilds each hosted-destination set's flat entry
arrays straight from the pricer's per-destination rows — entries sorted
by link slot, stable over the destination-major order, with the link-run
boundaries recorded — and reduces blocks of up to :data:`LAYER_BLOCK`
layers by fancy-indexing their cell columns and summing each run with
``np.add.reduceat``.  Sharing nothing with the CSR build but the dest
rows, it checks both the operator construction and the product.
"""

from dataclasses import dataclass

import numpy as np

from repro.network.phase import phase_durations_from_link_volumes

#: Layers reduced per segmented-sum batch.
LAYER_BLOCK = 8


@dataclass
class FlatGather:
    """Link-sorted flat entries of one hosted-destination set."""

    cell: np.ndarray  # (nnz,) into raveled (num_groups, n) cell matrix
    weight: np.ndarray  # (nnz,)
    row_starts: np.ndarray  # (rows,) first entry of each link run
    row_links: np.ndarray  # (rows,) link slot of each run, in [0, 2K)
    latency: np.ndarray  # (2, num_groups, n) per-cell worst path latency
    dense_latency: np.ndarray  # (2,) latency maxima under dense demand


def flat_gather(pricer, dests) -> FlatGather:
    """Flatten the pricer's dest rows for one hosted-destination set."""
    n = len(dests)
    idx_parts: list[np.ndarray] = []
    weight_parts: list[np.ndarray] = []
    cell_parts: list[np.ndarray] = []
    latency = np.zeros((2, pricer.num_groups, n))
    for pos, dest in enumerate(dests):
        rows = pricer._rows_for(int(dest))
        idx_parts.append(rows.link_idx)
        weight_parts.append(rows.weight)
        cell_parts.append(rows.group * n + pos)
        latency[:, :, pos] = rows.latency
    # A set whose destinations all hold their own tokens has no entries
    # and therefore no link runs.
    if sum(part.size for part in idx_parts):
        link_idx = np.concatenate(idx_parts)
        order = np.argsort(link_idx, kind="stable")
        link_idx = link_idx[order]
        weight = np.concatenate(weight_parts)[order]
        cell = np.concatenate(cell_parts)[order]
        row_starts = np.flatnonzero(np.r_[True, np.diff(link_idx) > 0])
        row_links = link_idx[row_starts]
    else:
        cell = np.empty(0, dtype=np.intp)
        weight = np.empty(0)
        row_starts = np.empty(0, dtype=np.intp)
        row_links = np.empty(0, dtype=np.intp)
    return FlatGather(
        cell=cell,
        weight=weight,
        row_starts=row_starts,
        row_links=row_links,
        latency=latency,
        dense_latency=latency.max(axis=(1, 2)) if n else np.zeros(2),
    )


def reduceat_reduce(
    pricer, demand_bytes: np.ndarray, states: list
) -> tuple[np.ndarray, np.ndarray]:
    """Per-link volumes ``(layers, 2, num_links)`` and worst active path
    latencies ``(layers, 2)`` for a stack of layer states."""
    num_layers = len(states)
    two_k = 2 * pricer.num_links
    stacked = demand_bytes.ndim == 3
    dense_demand = bool((demand_bytes > 0).all())
    volumes = np.zeros((num_layers, two_k))
    latencies = np.zeros((num_layers, 2))
    cells_by_layer: list[np.ndarray] = []
    layers_by_gather: dict[int, list[int]] = {}
    flat_by_id: dict[int, FlatGather] = {}
    for layer, state in enumerate(states):
        demand = demand_bytes[layer] if stacked else demand_bytes
        cells = demand @ state.shares_small
        cells_by_layer.append(cells)
        key = id(state.gather)
        if key not in flat_by_id:
            flat_by_id[key] = flat_gather(pricer, state.gather.dests)
        flat = flat_by_id[key]
        layers_by_gather.setdefault(key, []).append(layer)
        if dense_demand:
            latencies[layer] = flat.dense_latency
        elif flat.cell.size:
            active = cells > 0
            for phase in (0, 1):
                latencies[layer, phase] = np.where(
                    active, flat.latency[phase], 0.0
                ).max()
    for key, layers in layers_by_gather.items():
        flat = flat_by_id[key]
        if not flat.cell.size:
            continue
        for start in range(0, len(layers), LAYER_BLOCK):
            block = layers[start : start + LAYER_BLOCK]
            cell_cols = np.empty((cells_by_layer[block[0]].size, len(block)))
            for col, layer in enumerate(block):
                cell_cols[:, col] = cells_by_layer[layer].ravel()
            values = cell_cols[flat.cell]
            values *= flat.weight[:, None]
            reduced = np.add.reduceat(values, flat.row_starts, axis=0)
            volumes[np.ix_(block, flat.row_links)] = reduced.T
    return volumes.reshape(num_layers, 2, pricer.num_links), latencies


def reduceat_durations(
    pricer, demand_bytes: np.ndarray, states: list
) -> np.ndarray:
    """Per-phase durations per layer state, ``(layers, 2)``."""
    volumes, latencies = reduceat_reduce(pricer, demand_bytes, states)
    return phase_durations_from_link_volumes(
        pricer.topology, volumes, latencies
    )
