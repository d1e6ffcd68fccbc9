"""MoE all-to-all (dispatch + combine) simulation.

The dispatch traffic follows the paper's token-fetch model: a device hosting
an expert pulls each token from the nearest holder of that token (Sec. IV-A).
Which devices hold a token is the mapping's business — with all-gather
retained every member of the token's TP group is a holder, without it only
the shard owner is — so the mapping supplies its precomputed
:class:`~repro.mapping.base.HolderTable` and this module stays
mapping-agnostic.  Combine mirrors dispatch with reversed flow directions.

The hot path is array-native: a :class:`DispatchPlan` flattens the
iteration-invariant structure — (group, expert) demand cell × placement
destination shares × holder fractions — into parallel arrays once per
``(mapping, placement version)``, after which each iteration's traffic is a
gather, two multiplies, and one ``bincount``.  The plan enumerates terms in
exactly the order the original per-entry loop visited them (kept below as
:func:`loop_dispatch_traffic`, the reference oracle in the regression
tests), so the aggregated volumes are bit-identical to the seed semantics.

The serving loop never builds a :class:`DispatchPlan`: it prices its layer
stacks, layer 0 included, through a second, layer-batched tier.
:class:`LayeredAllToAllPricer` and :class:`LayeredDispatchPlan` price every
layer's all-to-all against its own (possibly migration-diverged) placement
through dense ``(group, dest) -> link`` operators, cached per
``(mapping, per-layer version vector)`` — see the layer-batched pricing
section below.

A third tier, :class:`SparseAllToAllPricer`, stores the same
``(group, dest) -> link`` map as one scipy CSR operator per *hosted*
destination set — link-slot rows over only the hosted columns' nonzero
holder-route cells — so a layer stack's link volumes are one sparse
product ``operator @ cells`` instead of one dense matmul.  Its per-layer
states are keyed on ``ExpertPlacement.version`` so
migrations rebuild only the touched layers' rows; memory is bounded by
replica count and route length, not ``O(G * D * links)``, which is what
makes 1024+-device multi-wafer systems simulable.  See
``docs/pricing-operators.md`` for the model.
"""

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np
from scipy import sparse as scipy_sparse

from repro import sanitize
from repro.network.phase import (
    PhaseResult,
    phase_durations_from_link_volumes,
    route_rows,
    simulate_phase,
)
from repro.network.traffic import ArrayTrafficMatrix, TrafficMatrix
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mapping.base import HolderTable, Mapping
    from repro.mapping.placement import ExpertPlacement

#: destinations(expert) -> [(device, share)], shares summing to 1.
DestinationFn = Callable[[int], Iterable[tuple[int, float]]]
#: holders(group, destination_device) -> [(device, fraction)], fractions summing to 1.
HolderFn = Callable[[int, int], Iterable[tuple[int, float]]]


@dataclass
class AllToAllResult:
    """Dispatch and combine phases of one MoE all-to-all."""

    dispatch: PhaseResult
    combine: PhaseResult

    @property
    def duration(self) -> float:
        return self.dispatch.duration + self.combine.duration

    @property
    def link_bytes(self) -> dict[tuple[int, int], float]:
        merged: dict[tuple[int, int], float] = {}
        self.dispatch.merge_link_bytes(merged)
        self.combine.merge_link_bytes(merged)
        return merged

    @property
    def total_volume(self) -> float:
        return self.dispatch.total_volume + self.combine.total_volume


def _first_touch_bins(
    keys: np.ndarray, num_devices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factorize pair keys by first occurrence.

    Returns (bin id per entry, bin src, bin dst) with bins numbered in the
    order their pair first appears in ``keys`` — the insertion order of the
    dict-backed loop, which downstream per-link float accumulation in
    ``simulate_phase`` depends on for bit-compatibility.
    """
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    ordered_keys = unique[order]
    return rank[inverse], ordered_keys // num_devices, ordered_keys % num_devices


class DispatchPlan:
    """Flattened (demand cell, destination, holder) expansion for one
    placement snapshot under one mapping.

    Entry ``k`` contributes ``demand[cell_k] * share_k * frac_k`` bytes to
    its (holder, destination) device pair; self-fetches are excluded at
    build time.  Aggregation walks the entries in the order the per-entry
    loop visited them and numbers pairs by first touch among the *active*
    (nonzero-demand) entries — exactly the dict insertion order of
    :func:`loop_dispatch_traffic` — so both the per-pair volumes and the
    pair ordering (hence downstream link accumulation) match the loop
    bitwise, for dense and sparse demand alike.  The dense-demand
    factorization is precomputed; demand with zero cells pays one
    ``np.unique`` per call.
    """

    def __init__(self, mapping: "Mapping", placement: "ExpertPlacement") -> None:
        num_groups = mapping.dp
        num_experts = placement.num_experts
        num_devices = placement.num_devices
        if mapping.topology.num_devices != num_devices:
            raise ValueError(
                f"placement covers {num_devices} devices but the mapping's "
                f"topology has {mapping.topology.num_devices}"
            )
        self.num_groups = num_groups
        self.num_experts = num_experts
        self.num_devices = num_devices

        table = mapping.token_holder_table()
        shares = placement.destination_shares
        replica_lists = [placement.replicas(expert) for expert in range(num_experts)]

        cells: list[int] = []
        share_terms: list[float] = []
        frac_terms: list[float] = []
        keys: list[int] = []
        for group in range(num_groups):
            for expert in range(num_experts):
                cell = group * num_experts + expert
                for dest in replica_lists[expert]:
                    share = shares[expert, dest]
                    for holder, fraction in table.entries(group, dest):
                        if holder == dest:
                            continue
                        cells.append(cell)
                        share_terms.append(share)
                        frac_terms.append(fraction)
                        keys.append(holder * num_devices + dest)

        self.entry_cell = np.array(cells, dtype=np.intp)
        self.entry_share = np.array(share_terms)
        self.entry_frac = np.array(frac_terms)
        self.entry_key = np.array(keys, dtype=np.intp)
        if self.entry_key.size:
            self.dense_bin, self.dense_src, self.dense_dst = _first_touch_bins(
                self.entry_key, num_devices
            )
        else:
            self.dense_bin = np.empty(0, dtype=np.intp)
            self.dense_src = np.empty(0, dtype=np.intp)
            self.dense_dst = np.empty(0, dtype=np.intp)
        # Plans are cached and served to every later iteration; under the
        # sanitizer their arrays are frozen so an aliasing caller raises
        # instead of corrupting subsequent traffic aggregation.
        sanitize.freeze(
            (
                self.entry_cell,
                self.entry_share,
                self.entry_frac,
                self.entry_key,
                self.dense_bin,
                self.dense_src,
                self.dense_dst,
            )
        )

    def traffic(self, demand_bytes: np.ndarray) -> ArrayTrafficMatrix:
        """Aggregate one iteration's dispatch traffic from a demand matrix."""
        values = demand_bytes.ravel()[self.entry_cell]
        active = values != 0
        if active.all():
            # Dense demand: the precomputed factorization already reflects
            # first-touch order over every entry.
            terms = values * self.entry_share
            terms *= self.entry_frac
            bins, src, dst = self.dense_bin, self.dense_src, self.dense_dst
        else:
            # Zero cells never enter the loop oracle's walk, so both the
            # term sequence and the pair numbering must come from the
            # active entries alone.
            terms = values[active] * self.entry_share[active]
            terms *= self.entry_frac[active]
            bins, src, dst = _first_touch_bins(
                self.entry_key[active], self.num_devices
            )
        volumes = np.bincount(bins, weights=terms, minlength=src.size)
        positive = volumes > 0
        return ArrayTrafficMatrix(src[positive], dst[positive], volumes[positive])


#: placement -> {id(mapping): (mapping weakref, placement version, plan)}.
#: Keyed weakly so retired placements release their plans; the version
#: check invalidates plans after migrations mutate the placement.
_PLAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _sweep_dead_mappings(per_mapping: dict) -> None:
    """Drop cache entries whose mapping weakref has expired.

    Entries are keyed by ``id(mapping)``; once the mapping dies its id may
    be recycled and, worse, the dead entry (holding a full plan) lives as
    long as the placement does.  Sweeping on insert bounds the dict by the
    number of *live* mappings.
    """
    dead = [key for key, entry in per_mapping.items() if entry[0]() is None]
    for key in dead:
        del per_mapping[key]


def dispatch_plan(
    mapping: "Mapping", placement: "ExpertPlacement"
) -> DispatchPlan:
    """The cached dispatch plan for this (mapping, placement version)."""
    per_mapping = _PLAN_CACHE.setdefault(placement, {})
    entry = per_mapping.get(id(mapping))
    if entry is not None:
        mapping_ref, version, plan = entry
        if mapping_ref() is mapping and version == placement.version:
            return plan
    _sweep_dead_mappings(per_mapping)
    plan = DispatchPlan(mapping, placement)
    per_mapping[id(mapping)] = (weakref.ref(mapping), placement.version, plan)
    return plan


def _validate_demand(demand_bytes: np.ndarray) -> None:
    if demand_bytes.ndim != 2:
        raise ValueError(
            f"demand must be 2-D (groups x experts), got {demand_bytes.ndim}-D"
        )
    if (demand_bytes < 0).any():
        raise ValueError("demand volumes must be >= 0")


def build_dispatch_traffic(
    demand_bytes: np.ndarray,
    placement: "ExpertPlacement",
    mapping: "Mapping",
) -> ArrayTrafficMatrix:
    """Aggregate token-fetch flows for a demand matrix, array-natively.

    Args:
        demand_bytes: ``(num_groups, num_experts)`` array; entry ``[g, e]``
            is the byte volume of group ``g`` tokens routed to expert ``e``.
        placement: expert placement supplying replica destination shares.
        mapping: mapping supplying the token-holder table.
    """
    _validate_demand(demand_bytes)
    plan = dispatch_plan(mapping, placement)
    if demand_bytes.shape != (plan.num_groups, plan.num_experts):
        raise ValueError(
            f"demand shape {demand_bytes.shape} != "
            f"({plan.num_groups}, {plan.num_experts})"
        )
    return plan.traffic(demand_bytes)


def loop_dispatch_traffic(
    demand_bytes: np.ndarray,
    destinations: DestinationFn,
    holders: HolderFn,
) -> TrafficMatrix:
    """The seed per-entry dispatch builder, kept as the reference oracle.

    Walks every nonzero (group, expert) demand cell, querying the
    ``destinations``/``holders`` callbacks per entry and accumulating into
    a dict-backed :class:`TrafficMatrix`.  :class:`DispatchPlan` reproduces
    this bit-for-bit; the regression tests hold the two paths together.
    """
    _validate_demand(demand_bytes)
    traffic = TrafficMatrix()
    groups, experts = np.nonzero(demand_bytes)
    for group, expert in zip(groups.tolist(), experts.tolist()):
        volume = float(demand_bytes[group, expert])
        for dest, dest_share in destinations(expert):
            routed = volume * dest_share
            if routed <= 0:
                continue
            for source, fraction in holders(group, dest):
                traffic.add(source, dest, routed * fraction)
    return traffic


def reverse_traffic(traffic: TrafficMatrix) -> TrafficMatrix:
    out = TrafficMatrix()
    for (src, dst), volume in traffic.items():
        out.add(dst, src, volume)
    return out


def simulate_alltoall(
    topology: Topology,
    demand_bytes: np.ndarray,
    placement: "ExpertPlacement",
    mapping: "Mapping",
) -> AllToAllResult:
    """Simulate dispatch and combine for one MoE layer invocation.

    Dispatch traffic comes off the cached :class:`DispatchPlan`; combine is
    its transpose — no per-flow objects are materialized anywhere on the
    path into :func:`~repro.network.phase.simulate_phase`.
    """
    dispatch_traffic = build_dispatch_traffic(demand_bytes, placement, mapping)
    combine_traffic = dispatch_traffic.transposed()
    return AllToAllResult(
        dispatch=simulate_phase(topology, dispatch_traffic),
        combine=simulate_phase(topology, combine_traffic),
    )


def uniform_demand(
    num_groups: int,
    num_experts: int,
    tokens_per_group: float,
    experts_per_token: int,
    token_bytes: float,
) -> np.ndarray:
    """Expected demand under the balanced gating of Sec. VI-B.

    Each token activates ``experts_per_token`` experts chosen uniformly, so
    every (group, expert) pair expects the same volume.
    """
    if num_groups <= 0 or num_experts <= 0:
        raise ValueError("num_groups and num_experts must be positive")
    per_pair = tokens_per_group * experts_per_token / num_experts * token_bytes
    return np.full((num_groups, num_experts), per_pair)


def demand_from_counts(counts: np.ndarray, token_bytes: float) -> np.ndarray:
    """Convert a (groups x experts) token-count matrix to byte volumes."""
    counts = np.asarray(counts, dtype=float)
    if (counts < 0).any():
        raise ValueError("token counts must be >= 0")
    return counts * token_bytes

# -- layer-batched pricing ---------------------------------------------------
#
# The serving loop prices every layer — layer 0 included — against its
# *own* destination shares without simulating L independent collectives: a
# per-mapping :class:`LayeredAllToAllPricer` folds holder fractions and CSR
# route weights into dense ``(group, dest) -> link`` operators once, after
# which a whole stack of placements is priced with two matmuls per
# iteration.  The per-link volumes equal the per-layer
# :func:`simulate_alltoall` sums mathematically (same terms, associative
# reordering), not bitwise: the two agree to ~1e-12 relative, and
# :func:`simulate_alltoall` with its :class:`DispatchPlan` stays as the
# per-flow oracle and the source of link-level heatmaps.
# :class:`LayeredDispatchPlan` collapses layers that share placement
# content into one priced row when they also share demand.


#: Nonzero fraction below which the dense pricer's operator is re-stored
#: as scipy CSR for the per-iteration volume product.  Mesh routes touch
#: a handful of links per holder pair, so real operators sit
#: around 2-5% density and the CSR product wins ~4x; near-dense operators
#: (tiny test topologies) stay on the matmul.
CSR_OPERATOR_MAX_DENSITY = 0.25


def _csr_operator(operator: np.ndarray) -> "scipy_sparse.csr_array | None":
    """CSR form of a dense link operator when sparsity warrants it.

    Returns ``None`` when the operator is too dense to profit from CSR.
    """
    nnz = np.count_nonzero(operator)
    if nnz > CSR_OPERATOR_MAX_DENSITY * operator.size:
        return None
    return scipy_sparse.csr_array(operator)


class LayeredAllToAllPricer:
    """Dense link operators pricing many placements' all-to-alls at once.

    For one (immutable) mapping the dispatch traffic of any placement
    factorizes as ``T[src, dst] = sum_g frac(g, dst, src) * M[g, dst]``
    where ``M = demand @ destination_shares`` is the only
    placement-dependent tensor.  Contracting the holder fractions with the
    cached CSR route weights yields ``operator[(g, d), link]`` such that
    the per-link volumes of a whole ``(layers, experts, devices)`` share
    stack are one ``(layers, G*D) @ (G*D, 2K)`` product — dispatch and
    combine link blocks side by side (combine routes ``dest -> holder``).
    Worst path latencies reduce the same way from per-cell maxima.  Memory
    is ``O(G * D * links)``; construction scatters every destination
    column from :func:`_dest_column`, so the pricer is built once per
    mapping and cached by :func:`alltoall_pricer`.
    """

    def __init__(self, mapping: "Mapping") -> None:
        topology = mapping.topology
        self.topology = topology
        self.num_groups = mapping.dp
        self.num_devices = topology.num_devices
        num_links = len(topology.links)
        self.num_links = num_links
        self._table = mapping.token_holder_table()

        groups, devices = self.num_groups, self.num_devices
        operator = np.zeros((groups, devices, 2 * num_links))
        cell_latency = np.zeros((2, groups, devices))
        for dest in range(devices):
            column = _dest_column(topology, self._table, dest)
            operator[column.group, dest, column.link_idx] = column.weight
            cell_latency[:, :, dest] = column.latency
        self.operator = operator.reshape(groups * devices, 2 * num_links)
        #: CSR twin of ``operator`` for the volume product (None -> dense
        #: matmul).  Same terms, CSR summation order (~1e-15); prices are
        #: pure outputs — no balancer decision reads them — so the
        #: reassociation cannot flip a trace.
        self.operator_csr = _csr_operator(self.operator)
        #: (2, groups, devices) worst path latency over a cell's holder
        #: pairs — dispatch row 0, combine row 1.
        self.cell_latency = cell_latency
        #: (2, devices) worst latency per destination column, for the
        #: dense-demand fast path (active cells = hosted columns).
        self.column_latency = cell_latency.max(axis=1)
        #: Cells in descending latency order per phase (flat (g, d)
        #: indices) and the matching sorted latencies: the worst *active*
        #: cell latency is the first active cell in this order, found by
        #: one boolean gather + argmax per phase instead of
        #: materializing a (layers, groups, devices) float where-mask.
        flat_latency = cell_latency.reshape(2, -1)
        self._latency_order = np.argsort(-flat_latency, axis=1)
        self._latency_sorted = np.take_along_axis(
            flat_latency, self._latency_order, axis=1
        )
        self._holder_tensor: np.ndarray | None = None

    def link_volumes(
        self, demand_bytes: np.ndarray, shares: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Destination cells and per-link volumes for a share stack.

        Args:
            demand_bytes: byte demand — either one ``(groups, experts)``
                matrix shared by every layer (the demand-broadcast mode) or
                a ``(layers, groups, experts)`` stack carrying each layer's
                own demand rows (the demand-resolved mode); matmul
                broadcasting prices both through the same operator product.
            shares: ``(layers, experts, devices)`` destination-share stack.

        Returns:
            ``(cells, volumes)`` with cells ``(layers, groups, devices)``
            and volumes ``(layers, 2, num_links)`` in route-cache link
            order (dispatch phase first).
        """
        cells = np.matmul(demand_bytes, shares)
        flat = cells.reshape(shares.shape[0], -1)
        matrix = self.operator if self.operator_csr is None else self.operator_csr
        volumes = (flat @ matrix).reshape(shares.shape[0], 2, self.num_links)
        return cells, volumes

    def dense_demand_latencies(self, shares: np.ndarray) -> np.ndarray:
        """Worst path latencies per (layer, phase) under dense demand.

        Dense demand activates exactly the hosted destination columns, so
        the latency reduction collapses to per-column maxima — and depends
        only on the share stack, letting plans precompute it once per
        placement epoch instead of per iteration.
        """
        hosted = shares.any(axis=1)
        return np.where(
            hosted[:, None, :], self.column_latency[None], 0.0
        ).max(axis=2)

    def durations(
        self,
        demand_bytes: np.ndarray,
        shares: np.ndarray,
        dense_latencies: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-phase durations per layer: ``(layers, 2)`` seconds,
        dispatch in column 0 and combine in column 1.

        Each layer's phases follow :func:`simulate_phase`'s cut-through
        semantics (busiest-link drain plus worst active path latency),
        with the per-link sums evaluated in batched operator order.
        ``demand_bytes`` is a shared ``(groups, experts)`` matrix or a
        per-layer ``(layers, groups, experts)`` stack (see
        :meth:`link_volumes`).  ``dense_latencies`` may carry
        :meth:`dense_demand_latencies` of the same share stack; it is only
        consulted when the demand is actually dense (zero cells deactivate
        pairs, shrinking the latency max).
        """
        cells, volumes = self.link_volumes(demand_bytes, shares)
        if (demand_bytes > 0).all():
            if dense_latencies is None:
                dense_latencies = self.dense_demand_latencies(shares)
            latencies = dense_latencies
        else:
            # Zero demand cells deactivate their holder pairs.  The worst
            # active latency per layer is the first active cell in the
            # precomputed descending-latency order — a boolean gather +
            # argmax per phase, same exact float as the where/max
            # reduction it replaces (no arithmetic, only selection).  The
            # big-expert figure models (mean tokens/expert ~4) draw zero
            # cells nearly every iteration, making this the common path.
            active = cells.reshape(cells.shape[0], -1) > 0
            rows = np.arange(active.shape[0])
            latencies = np.empty((active.shape[0], 2))
            for phase in range(2):
                ordered = active[:, self._latency_order[phase]]
                first = ordered.argmax(axis=1)
                latencies[:, phase] = np.where(
                    ordered[rows, first], self._latency_sorted[phase, first], 0.0
                )
        return phase_durations_from_link_volumes(
            self.topology, volumes, latencies
        )

    def traffic_tensor(
        self, demand_bytes: np.ndarray, shares: np.ndarray
    ) -> np.ndarray:
        """Dense ``(layers, devices, devices)`` dispatch traffic tensor.

        Entry ``[l, src, dst]`` is the byte volume device ``src`` sends to
        ``dst`` in layer ``l``'s dispatch; combine is its transpose.  The
        hot path never materializes this (links aggregate straight off the
        operator); it backs the regression tests against the per-layer
        :class:`DispatchPlan` oracle.
        """
        holders = self._holder_fraction_tensor()
        cells = np.matmul(demand_bytes, shares)
        return np.einsum("gdh,lgd->lhd", holders, cells)

    def _holder_fraction_tensor(self) -> np.ndarray:
        """(groups, dest, holder) fraction tensor, self-fetches zeroed."""
        if self._holder_tensor is None:
            tensor = np.zeros(
                (self.num_groups, self.num_devices, self.num_devices)
            )
            for group in range(self.num_groups):
                for dest in range(self.num_devices):
                    for holder, fraction in self._table.entries(group, dest):
                        if holder != dest:
                            tensor[group, dest, holder] = fraction
            self._holder_tensor = sanitize.freeze(tensor)
        return self._holder_tensor


#: mapping -> LayeredAllToAllPricer, weakly keyed (pricers die with their
#: mapping; the route cache they fold lives on the topology regardless).
_PRICER_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def alltoall_pricer(mapping: "Mapping") -> LayeredAllToAllPricer:
    """The cached layer-batched pricer for this mapping."""
    pricer = _PRICER_CACHE.get(mapping)
    if pricer is None:
        pricer = LayeredAllToAllPricer(mapping)
        _PRICER_CACHE[mapping] = pricer
    return pricer


def dense_operator_nbytes(mapping: "Mapping") -> int:
    """Bytes the dense :class:`LayeredAllToAllPricer` operator would take.

    ``G * D * 2K`` float64 cells — computed analytically so scale studies
    can report (and CI can gate on) the dense footprint without ever
    materializing it.
    """
    topology = mapping.topology
    return mapping.dp * topology.num_devices * 2 * len(topology.links) * 8


#: Dense-operator footprint above which auto pricing-mode selection picks
#: the sparse tier.  Below it the dense operator fits comfortably and its
#: batched matmul wins; above it (256+-device systems — fig17's 16x16 mesh
#: prices a ~250 MB operator, a 4-wafer 1024-device system ~4 GB) sparse
#: is both smaller and faster to build.
SPARSE_AUTO_THRESHOLD_BYTES = 64 * 2**20


def prefer_sparse_pricing(mapping: "Mapping") -> bool:
    """The auto rule behind ``PricingConfig(sparse_pricing=None)``."""
    return dense_operator_nbytes(mapping) > SPARSE_AUTO_THRESHOLD_BYTES


# -- sparse incremental pricing ----------------------------------------------
#
# The dense operator's O(G * D * links) rows are mostly zeros twice over:
# only the *hosted* destination columns (bounded by total replica count,
# not D) can receive traffic, and a (group, dest) cell's routes touch only
# the few links on its holders' paths, not all 2K link slots.  The sparse
# tier below stores exactly the nonzero cells as one scipy CSR operator
# per hosted-destination set and prices a placement stack with one sparse
# product over the columns of every layer's (demand @ shares) cells —
# identical terms to the dense matmul, reassociated (~1e-12), at
# O(nonzero entries) memory and work.


@dataclass
class _SparseDestRows:
    """CSR rows of one destination column: every (group, dest) entry.

    Entries are grouped by ``group`` (ascending) and ordered by link index
    within a group.  :func:`_dest_column` builds them, and the dense
    operator scatters the same columns, so the two tiers' cells are
    bit-identical.  Depends only on the mapping, so rows are built once
    per destination and shared by every placement epoch and layer that
    hosts the destination.
    """

    link_idx: np.ndarray  # (nnz,) into [0, 2 * num_links)
    weight: np.ndarray  # (nnz,) holder-fraction-weighted link bytes/byte
    group: np.ndarray  # (nnz,) demand group of each entry
    latency: np.ndarray  # (2, num_groups) worst path latency per phase

    @property
    def nbytes(self) -> int:
        return (
            self.link_idx.nbytes
            + self.weight.nbytes
            + self.group.nbytes
            + self.latency.nbytes
        )


def _ragged_take(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``starts[i] : starts[i] + counts[i]``,
    concatenated in run order."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(
        counts.sum()
    )


def _distinct_rows(
    table: "HolderTable", starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Groups with equal holder rows, found in one vectorized pass.

    Row ``g`` is the table slice ``starts[g] : starts[g] + counts[g]``.
    Returns ``(first, row_of)``: ``first[r]`` is the lowest group whose
    row is distinct row ``r`` and ``row_of[g]`` the distinct row of group
    ``g``.  Rows are equal when their holders and the bits of their
    fractions are, entry for entry: each row becomes one fixed-width
    byte key (holders, then fraction bits, padded with ``-1`` to the
    longest row) and one ``np.unique`` groups equal keys.
    """
    entries = _ragged_take(starts, counts)
    width = max(int(counts.max()), 1)
    row = np.repeat(np.arange(counts.size), counts)
    pos = entries - np.repeat(starts, counts)
    padded = np.full((counts.size, 2, width), -1, dtype=np.int64)
    padded[row, 0, pos] = table.holders[entries]
    padded[row, 1, pos] = table.fractions[entries].view(np.int64)
    keys = padded.reshape(counts.size, -1).view(np.dtype((np.void, 16 * width)))
    _, first, row_of = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return first, row_of


def _dest_column(
    topology: Topology, table: "HolderTable", dest: int
) -> _SparseDestRows:
    """Every ``(group, dest)`` cell's link-slot entries for one destination.

    Dispatch routes ``holder -> dest`` fill link slots ``[0, K)`` and
    combine routes ``dest -> holder`` slots ``[K, 2K)``, each route row
    weighted by its holder fraction.  Only distinct work is done: groups
    whose holder rows are equal (HER groups at the same local coordinate
    of different wafers pull from the same mirror set) are built once,
    from the first such group's row, so each distinct row's remote
    holders are routed once — both phases in one :func:`route_rows`
    block.  One ``np.add.at`` in (distinct row, holder-row order) repeats
    the per-holder scalar accumulation addition for addition, and the
    distinct rows' entries are copied out to their groups in group order,
    so the cell weights are bitwise those of a holder-by-holder walk.
    Both pricers build their operators from these columns.
    """
    num_groups = table.num_groups
    num_links = len(topology.links)
    two_k = 2 * num_links
    cells = np.arange(num_groups) * table.num_devices + dest
    starts = table.offsets[cells]
    counts = table.offsets[cells + 1] - starts
    first, row_of = _distinct_rows(table, starts, counts)
    entries = _ragged_take(starts[first], counts[first])
    holders = table.holders[entries]
    remote = holders != dest
    holders = holders[remote]
    fractions = table.fractions[entries][remote]
    rows = np.repeat(np.arange(first.size), counts[first])[remote]
    here = np.full(holders.size, dest, dtype=np.intp)
    # Dispatch pairs first, then combine pairs.
    offsets, link_idx, weights, path_latency = route_rows(
        topology, np.concatenate((holders, here)), np.concatenate((here, holders))
    )
    phase = np.repeat([0, 1], holders.size)
    pair_row = np.tile(rows, 2)
    hops = np.diff(offsets)
    keys = np.repeat(pair_row * two_k + phase * num_links, hops) + link_idx
    values = np.repeat(np.tile(fractions, 2), hops) * weights
    latency = np.zeros((2, first.size))
    np.maximum.at(latency, (phase, pair_row), path_latency)
    slots, inverse = np.unique(keys, return_inverse=True)
    row_weight = np.zeros(slots.size)
    np.add.at(row_weight, inverse, values)
    slot_row, row_link = np.divmod(slots, two_k)
    row_size = np.bincount(slot_row, minlength=first.size)
    sizes = row_size[row_of]
    picked = _ragged_take((np.cumsum(row_size) - row_size)[row_of], sizes)
    link_idx = row_link[picked]
    weight = row_weight[picked]
    group = np.repeat(np.arange(num_groups), sizes)
    latency = latency[:, row_of]
    sanitize.freeze((link_idx, weight, group, latency))
    return _SparseDestRows(
        link_idx=link_idx, weight=weight, group=group, latency=latency
    )


@dataclass
class _SparseGather:
    """Pricing operator for one hosted-destination set.

    Shared by every layer state whose placement hosts exactly these
    destinations (before any migration that is *all* layers), and cached
    across placement epochs — a migration that returns to a previously
    seen hosted set pays nothing.

    ``operator`` is a ``(2K, num_groups * n)`` CSR matrix: row ``k`` is
    link slot ``k`` (dispatch links first, then combine), column
    ``group * n + pos`` the cell of ``group`` at hosted destination
    ``dests[pos]``.  Its entries are the destination rows' entries sorted
    by link slot (stable over the destination-major build order), so
    ``indptr`` is the link-run boundaries and the per-link summation order
    is deterministic; a stack of layers prices as ``operator @ cells``.
    """

    dests: np.ndarray  # (n,) hosted destination devices, ascending
    operator: scipy_sparse.csr_array  # (2K, num_groups * n) link x cell
    latency: np.ndarray  # (2, num_groups, n) per-cell worst path latency
    dense_latency: np.ndarray  # (2,) latency maxima under dense demand

    @property
    def nbytes(self) -> int:
        operator = self.operator
        return (
            self.dests.nbytes
            + operator.data.nbytes
            + operator.indices.nbytes
            + operator.indptr.nbytes
            + self.latency.nbytes
            + self.dense_latency.nbytes
        )


@dataclass
class _SparseLayerState:
    """One layer placement's pricing state at a specific version."""

    version: int
    gather: _SparseGather
    shares_small: np.ndarray  # (experts, n) shares over hosted dests only
    #: ``shares_small``'s nonzeros, column by column with experts
    #: ascending in each: the terms of the layer's cells.
    share_expert: np.ndarray  # (nnz,) expert of each nonzero
    share_column: np.ndarray  # (nnz,) hosted column of each nonzero
    share_value: np.ndarray  # (nnz,) its share
    share_rank: np.ndarray  # (nnz,) its position within its column


def _share_cells(
    demand: np.ndarray, states: list[_SparseLayerState], n: int
) -> np.ndarray:
    """``demand @ shares_small`` of a layer stack from the shares' nonzeros.

    ``demand`` is one shared ``(groups, experts)`` matrix or one
    ``(groups, experts)`` row block per state; returns ``(layers,
    groups, n)`` cells.  A hosted column has only its few replicas'
    terms, so each cell adds its nonzero terms in ascending expert
    order, one rank of the columns at a time, instead of a dense batched
    matmul (whose first threaded BLAS call in a process can stall for a
    second).  With at most one term per cell, or exact products, the
    cells equal the matmul's bitwise.
    """
    sizes = [state.share_expert.size for state in states]
    layer = np.repeat(np.arange(len(states)), sizes)
    expert = np.concatenate([state.share_expert for state in states])
    column = np.concatenate([state.share_column for state in states])
    value = np.concatenate([state.share_value for state in states])
    rank = np.concatenate([state.share_rank for state in states])
    rows = demand[layer, :, expert] if demand.ndim == 3 else demand[:, expert].T
    terms = rows * value[:, None]
    cells = np.zeros((len(states), demand.shape[-2], n))
    for position in range(int(rank.max(initial=-1)) + 1):
        pick = rank == position
        cells[layer[pick], :, column[pick]] += terms[pick]
    return cells


class SparseAllToAllPricer:
    """CSR-form all-to-all pricer with per-layer incremental states.

    The pricing identity is the dense pricer's: per-link volumes are
    ``sum_cells cells[g, d] * operator[(g, d), link]``.  Here the operator
    exists only as flat nonzero entries per hosted destination
    (:class:`_SparseDestRows`), a placement prices through a
    :class:`_SparseLayerState` holding its hosted-column share matrix and
    the shared :class:`_SparseGather`, and a stack of layers prices with
    one CSR product per gather (the gather's link-by-cell operator times
    the cell columns of every layer that shares it).

    Incrementality is version-keyed at every level: states are cached per
    :class:`~repro.mapping.placement.ExpertPlacement` and revalidated
    against ``placement.version``, so migration-free iterations rebuild
    nothing (``state_rebuilds`` stays flat — the regression tests assert
    on it) and a migration burst rebuilds only the mutated layers' states,
    each of which is a share-column copy plus cache lookups (a new
    destination pays its column build once, in ``dest_row_builds``).
    """

    #: Gather structures retained across placement epochs.  Serving runs
    #: revisit a handful of hosted sets; the cap only bounds pathological
    #: churn (every eviction is rebuildable from the dest rows).
    GATHER_CACHE_CAP = 64

    def __init__(self, mapping: "Mapping") -> None:
        topology = mapping.topology
        self.topology = topology
        self.num_groups = mapping.dp
        self.num_devices = topology.num_devices
        self.num_links = len(topology.links)
        self._table = mapping.token_holder_table()
        self._dest_rows: dict[int, _SparseDestRows] = {}
        self._dest_rows_nbytes = 0  # running sum over _dest_rows
        self._gathers: "OrderedDict[tuple, _SparseGather]" = OrderedDict()
        self._states: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: Layer states (re)built — flat across migration-free iterations.
        self.state_rebuilds = 0
        #: Destination columns whose CSR rows were materialized.
        self.dest_row_builds = 0
        #: High-water mark of :meth:`operator_nbytes`.
        self.peak_operator_nbytes = 0

    # -- construction ---------------------------------------------------

    def _rows_for(self, dest: int) -> _SparseDestRows:
        """CSR rows of one destination column, built on first use."""
        rows = self._dest_rows.get(dest)
        if rows is not None:
            return rows
        rows = _dest_column(self.topology, self._table, dest)
        self._dest_rows[dest] = rows
        self._dest_rows_nbytes += rows.nbytes
        self.dest_row_builds += 1
        self._note_memory()
        return rows

    def _gather_for(self, dests: tuple[int, ...]) -> _SparseGather:
        """The pricing structure for a hosted-destination set, cached."""
        gather = self._gathers.get(dests)
        if gather is not None:
            self._gathers.move_to_end(dests)
            return gather
        n = len(dests)
        two_k = 2 * self.num_links
        num_cells = self.num_groups * n
        latency = np.zeros((2, self.num_groups, n))
        link_parts = [np.empty(0, dtype=np.intp)]
        weight_parts = [np.empty(0)]
        cell_parts = [np.empty(0, dtype=np.intp)]
        for pos, dest in enumerate(dests):
            rows = self._rows_for(dest)
            link_parts.append(rows.link_idx)
            weight_parts.append(rows.weight)
            cell_parts.append(rows.group * n + pos)
            latency[:, :, pos] = rows.latency
        link_idx = np.concatenate(link_parts)
        # Sort by link slot, stable over the destination-major build order
        # so the per-link summation order is deterministic; the link-run
        # boundaries are then the CSR row pointers.  The keys are sorted
        # as the smallest unsigned type that holds every slot (uint16 up
        # to 32767 links), which numpy sorts stably by radix; a stable
        # sort's permutation depends only on the key order, so it is the
        # one the intp keys give.
        order = np.argsort(
            link_idx.astype(np.min_scalar_type(two_k)), kind="stable"
        )
        index_dtype = (
            np.int32
            if max(num_cells, link_idx.size) <= np.iinfo(np.int32).max
            else np.int64
        )
        indptr = np.zeros(two_k + 1, dtype=index_dtype)
        np.cumsum(np.bincount(link_idx, minlength=two_k), out=indptr[1:])
        operator = scipy_sparse.csr_array(
            (
                np.concatenate(weight_parts)[order],
                np.concatenate(cell_parts).astype(index_dtype)[order],
                indptr,
            ),
            shape=(two_k, num_cells),
        )
        gather = _SparseGather(
            dests=np.asarray(dests, dtype=np.intp),
            operator=operator,
            latency=latency,
            dense_latency=(
                latency.max(axis=(1, 2)) if n else np.zeros(2)
            ),
        )
        sanitize.freeze(
            (
                gather.dests,
                operator.data,
                operator.indices,
                operator.indptr,
                gather.latency,
                gather.dense_latency,
            )
        )
        self._gathers[dests] = gather
        if len(self._gathers) > self.GATHER_CACHE_CAP:
            self._gathers.popitem(last=False)
        self._note_memory()
        return gather

    def state_for(self, placement: "ExpertPlacement") -> _SparseLayerState:
        """This placement's pricing state, rebuilt only when its version
        moved since the cached state was taken."""
        state = self._states.get(placement)
        if state is not None and state.version == placement.version:
            return state
        shares = placement.destination_shares
        dests = np.flatnonzero(shares.any(axis=0))
        gather = self._gather_for(tuple(dests.tolist()))
        small = shares[:, dests]
        column, expert = np.nonzero(small.T)
        column_start = np.searchsorted(column, column, side="left")
        state = _SparseLayerState(
            version=placement.version,
            gather=gather,
            shares_small=small,
            share_expert=expert,
            share_column=column,
            share_value=small[expert, column],
            share_rank=np.arange(column.size) - column_start,
        )
        sanitize.freeze(
            (
                state.shares_small,
                state.share_expert,
                state.share_column,
                state.share_value,
                state.share_rank,
            )
        )
        self._states[placement] = state
        self.state_rebuilds += 1
        return state

    # -- pricing --------------------------------------------------------

    def link_volumes(
        self, demand_bytes: np.ndarray, states: list
    ) -> np.ndarray:
        """Per-link volumes for a stack of layer states.

        ``demand_bytes`` is one shared ``(groups, experts)`` matrix or a
        ``(layers, groups, experts)`` stack; returns ``(layers, 2,
        num_links)`` in the dense pricer's link order.
        """
        volumes, _ = self._reduce(demand_bytes, states, with_latencies=False)
        return volumes

    def durations(
        self, demand_bytes: np.ndarray, states: list
    ) -> np.ndarray:
        """Per-phase durations per layer state: ``(layers, 2)``.

        Matches :meth:`LayeredAllToAllPricer.durations` on the same
        placements to summation-order rounding (~1e-12 relative): the
        active-cell masks agree exactly (nonnegative products cannot round
        to a spurious zero), the latency maxima are exact, and only the
        per-link sums reassociate.
        """
        volumes, latencies = self._reduce(
            demand_bytes, states, with_latencies=True
        )
        return phase_durations_from_link_volumes(
            self.topology, volumes, latencies
        )

    def _reduce(
        self, demand_bytes: np.ndarray, states: list, with_latencies: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One CSR product per gather over its layers' cell columns.

        Layers sharing one gather (all of them, until a migration splits
        the hosted sets) price together: :func:`_share_cells` gives their
        ``(layers, groups, n)`` cells, whose raveled rows are the columns
        ``operator @`` turns into per-link volumes for every layer at
        once.  Under sparse demand the worst active path latency per
        (layer, phase) is one masked max over the same cells.
        """
        num_layers = len(states)
        stacked = demand_bytes.ndim == 3
        dense_demand = with_latencies and bool((demand_bytes > 0).all())
        volumes = np.empty((num_layers, 2 * self.num_links))
        latencies = np.zeros((num_layers, 2)) if with_latencies else None
        layers_by_gather: dict[int, list[int]] = {}
        for layer, state in enumerate(states):
            layers_by_gather.setdefault(id(state.gather), []).append(layer)
        for layers in layers_by_gather.values():
            gather = states[layers[0]].gather
            demand = demand_bytes[layers] if stacked else demand_bytes
            cells = _share_cells(
                demand, [states[layer] for layer in layers], gather.dests.size
            )
            volumes[layers] = (
                gather.operator @ cells.reshape(len(layers), -1).T
            ).T
            if not with_latencies:
                continue
            if dense_demand:
                latencies[layers] = gather.dense_latency
            else:
                latency = np.broadcast_to(
                    gather.latency, (len(layers), *gather.latency.shape)
                )
                latencies[layers] = latency.max(
                    axis=(2, 3), where=(cells > 0)[:, None], initial=0.0
                )
        return volumes.reshape(num_layers, 2, self.num_links), latencies

    # -- memory accounting ----------------------------------------------

    def operator_nbytes(self) -> int:
        """Bytes held by the operator structures (dest rows + gathers).

        Per-state share columns are excluded — they are the placement
        representation (the dense tier's share stacks are likewise not
        operator memory), not the ``(group, dest) -> link`` map.
        """
        return self._dest_rows_nbytes + sum(
            gather.nbytes for gather in self._gathers.values()
        )

    def _note_memory(self) -> None:
        current = self.operator_nbytes()
        if current > self.peak_operator_nbytes:
            self.peak_operator_nbytes = current


#: mapping -> SparseAllToAllPricer, weakly keyed like _PRICER_CACHE.
_SPARSE_PRICER_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def sparse_alltoall_pricer(mapping: "Mapping") -> SparseAllToAllPricer:
    """The cached sparse incremental pricer for this mapping."""
    pricer = _SPARSE_PRICER_CACHE.get(mapping)
    if pricer is None:
        pricer = SparseAllToAllPricer(mapping)
        _SPARSE_PRICER_CACHE[mapping] = pricer
    return pricer


class LayeredDispatchPlan:
    """Content-grouped pricing plan for one stack of per-layer placements.

    This is the serving loop's only all-to-all pricing path: every layer,
    layer 0 included, prices through the layer-batched operator.  Layers
    are grouped by placement *content* (the destination-share digest from
    :meth:`~repro.mapping.placement.ExpertPlacement.content_key`); under a
    shared demand matrix (:meth:`alltoall_durations`) each content group is
    priced once against its own destination shares and every layer of the
    group takes its price — before any migration that is one group for the
    whole stack.  The grouping and the share stacks are
    iteration-invariant, so :func:`layered_dispatch_plan` caches the plan
    per ``(mapping, per-layer version vector)`` and migration-free
    iterations never rebuild it.

    Under *demand-resolved* pricing (:meth:`alltoall_durations_resolved`)
    the content grouping no longer collapses layers — every layer carries
    its own demand rows, so all of them go through the pricer each
    iteration regardless of placement content.  The plan then serves as
    the per-placement-epoch cache of the share stack and its dense-demand
    latency maxima: with a stacked engine the share stack is a zero-copy
    view of the :class:`~repro.mapping.placement.StackedPlacement` tensor
    (safe because any mutation bumps a layer version and retires this
    plan); a plain list of placements pays one ``np.stack`` per placement
    epoch.

    With ``sparse=True`` both paths price through the
    :class:`SparseAllToAllPricer` instead — same grouping and same caching
    discipline, but the plan holds per-layer sparse states
    (version-validated against each placement) rather than dense share
    stacks, and the dense operator is never materialized.  A plan is built
    for exactly one mode; :func:`layered_dispatch_plan` keys its cache on
    the mode so toggling ``sparse_pricing`` mid-session can never serve a
    plan priced the other way.

    The per-flow :func:`simulate_alltoall` path (link-level heatmaps) is
    the oracle: both methods agree with it per layer to summation-order
    rounding (~1e-12 relative).
    """

    def __init__(
        self,
        mapping: "Mapping",
        placements: list,
        stacked_shares: np.ndarray | None = None,
        sparse: bool = False,
    ) -> None:
        self.sparse = sparse
        self.pricer = None if sparse else alltoall_pricer(mapping)
        self.sparse_pricer = sparse_alltoall_pricer(mapping) if sparse else None
        self._placements = placements
        self._stacked_shares = stacked_shares
        #: resolved? -> dense (shares, latencies) or sparse state list.
        self._stacks: dict[bool, object] = {}
        group_of_key: dict[bytes, int] = {}
        representatives: list[int] = []
        group_index = np.empty(len(placements), dtype=np.intp)
        for layer, placement in enumerate(placements):
            key = placement.content_key()
            group = group_of_key.get(key)
            if group is None:
                group = len(representatives)
                group_of_key[key] = group
                representatives.append(layer)
            group_index[layer] = group
        self.num_groups = len(representatives)
        self.group_index = group_index
        self.representatives = representatives
        #: True when every layer still shares layer 0's placement content —
        #: a shared demand matrix then prices every layer alike.
        self.uniform = self.num_groups == 1

    def _dense_stack(self, layers: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Frozen share stack of ``layers`` + its dense-demand latencies."""
        if self._stacked_shares is not None and len(layers) == len(
            self._placements
        ):
            shares = self._stacked_shares
        else:
            shares = sanitize.freeze(
                np.stack(
                    [self._placements[layer].destination_shares for layer in layers]
                )
            )
        return shares, sanitize.freeze(self.pricer.dense_demand_latencies(shares))

    def _price(self, demand_bytes: np.ndarray, resolved: bool) -> np.ndarray:
        """Per-phase durations of every layer (``resolved``) or of the
        content-group representatives.

        Each mode's share stack (dense) or state list (sparse) is built on
        first use — a run pays only for the mode it prices — and kept for
        the plan's placement epoch.  ``state_for`` is version-validated,
        so unmutated layers reuse their cached sparse states across plans.
        """
        stack = self._stacks.get(resolved)
        if stack is None:
            layers = (
                list(range(len(self._placements)))
                if resolved
                else self.representatives
            )
            if self.sparse:
                stack = [
                    self.sparse_pricer.state_for(self._placements[layer])
                    for layer in layers
                ]
            else:
                stack = self._dense_stack(layers)
            self._stacks[resolved] = stack
        if self.sparse:
            return self.sparse_pricer.durations(demand_bytes, stack)
        shares, latencies = stack
        return self.pricer.durations(demand_bytes, shares, latencies)

    def alltoall_durations(self, demand_bytes: np.ndarray) -> np.ndarray:
        """Per-layer ``(num_layers, 2)`` dispatch/combine durations under
        one shared ``(groups, experts)`` demand matrix.

        Each content group is priced once (layer 0's group first) and its
        row is broadcast to every layer of the group.
        """
        return self._price(demand_bytes, resolved=False)[self.group_index]

    def alltoall_durations_resolved(self, demand_stack: np.ndarray) -> np.ndarray:
        """Per-layer ``(num_layers, 2)`` durations under per-layer demand.

        ``demand_stack`` is the ``(layers, groups, experts)`` byte-demand
        tensor.  Every layer — layer 0 included — is priced against its own
        placement *and* its own demand rows, one batched operator product
        for the whole stack.  Content groups cannot collapse here (two
        layers sharing placement content still differ in demand), which is
        exactly the fidelity demand-resolved pricing buys.
        """
        return self._price(demand_stack, resolved=True)


#: anchor placement -> {(id(mapping), sparse):
#:     (mapping weakref, version vector, plan)}.
#: The anchor is the StackedPlacement (a plan over the whole stack) or
#: layer 0's ExpertPlacement (a plan over layer 0 alone, for the
#: layer-0-broadcast pricing mode); the version vector — one counter per
#: layer — invalidates the grouping exactly when a migration or eviction
#: mutates any layer.  The pricing mode is part of the key: a plan is
#: built for one mode, and toggling ``sparse_pricing`` mid-session must
#: never resolve to a plan priced the other way.
_LAYERED_PLAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def layered_dispatch_plan(
    mapping: "Mapping", anchor, placements: list, sparse: bool = False
) -> LayeredDispatchPlan:
    """The cached layered plan for this (mapping, mode, version vector)."""
    per_mapping = _LAYERED_PLAN_CACHE.setdefault(anchor, {})
    versions = tuple(placement.version for placement in placements)
    key = (id(mapping), sparse)
    entry = per_mapping.get(key)
    if entry is not None:
        mapping_ref, cached_versions, plan = entry
        if mapping_ref() is mapping and cached_versions == versions:
            return plan
    _sweep_dead_mappings(per_mapping)
    # A stacked anchor maintains the (layers, experts, devices) share
    # tensor incrementally; hand it to the plan so demand-resolved pricing
    # reads it zero-copy instead of re-stacking per placement epoch.
    anchor_shares = getattr(anchor, "destination_shares", None)
    if anchor_shares is not None and anchor_shares.ndim != 3:
        anchor_shares = None
    plan = LayeredDispatchPlan(
        mapping, placements, stacked_shares=anchor_shares, sparse=sparse
    )
    per_mapping[key] = (weakref.ref(mapping), versions, plan)
    return plan


def clear_plan_caches() -> None:
    """Drop every module-level pricing cache.

    The caches are weakly keyed on placements/mappings and version-checked,
    so stale *results* can't normally be served — but cache *state* (LRU
    contents, per-layer sparse states, plan objects) can still leak across
    tests or outlive a fault-injected topology change.  Tests clear them
    between cases via an autouse fixture (``tests/conftest.py``); fault
    tooling may call this after mutating a topology's health out-of-band.
    """
    _PLAN_CACHE.clear()
    _PRICER_CACHE.clear()
    _SPARSE_PRICER_CACHE.clear()
    _LAYERED_PLAN_CACHE.clear()
