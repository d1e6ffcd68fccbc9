"""Single-phase congestion model (generalised Eq. 1)."""

from dataclasses import dataclass, field

import numpy as np

from repro import sanitize
from repro.faults.health import degraded_bandwidth, topology_health
from repro.network.traffic import ArrayTrafficMatrix, Flow, TrafficMatrix
from repro.topology.base import Topology


@dataclass
class PhaseResult:
    """Outcome of simulating one communication phase.

    Attributes:
        duration: phase completion time in seconds.
        link_bytes: bytes carried per directed link during the phase.
        serialization_time: bottleneck-link transfer component.
        latency_time: worst per-flow cumulative hop latency component.
        total_volume: sum of flow volumes (for sanity checks / reporting).
    """

    duration: float
    link_bytes: dict[tuple[int, int], float] = field(default_factory=dict)
    serialization_time: float = 0.0
    latency_time: float = 0.0
    total_volume: float = 0.0

    @property
    def bottleneck_link(self) -> tuple[int, int] | None:
        if not self.link_bytes:
            return None
        return max(self.link_bytes, key=lambda key: self.link_bytes[key])

    def merge_link_bytes(self, into: dict[tuple[int, int], float]) -> None:
        for key, volume in self.link_bytes.items():
            into[key] = into.get(key, 0.0) + volume


class _RouteCache:
    """Per-topology route tables in index/weight array form.

    Topologies are immutable after construction, so for every (src, dst)
    pair the set of links a flow loads — primary route plus the O1TURN
    alternate when a mesh offers one — is fixed.  The cache stores that set
    as a unique link-index array with per-link byte weights (route share,
    pre-merged for links shared between routes) plus the worst per-route
    latency, letting :func:`simulate_phase` charge a whole flow list with
    one ``bincount`` instead of walking Link objects.

    :meth:`pair_rows` returns those rows for whole arrays of pairs as one
    CSR block.  On meshes it reads the closed-form dimension-order paths
    (:meth:`~repro.topology.mesh.MeshTopology.dimension_order_paths`), so a
    destination column of route rows costs a few array operations, not one
    route walk per pair; other topologies walk :meth:`pair` per pair.  The
    per-pair memo behind :meth:`pair` and :meth:`rows_for` fills from the
    same block.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.keys = list(topology.links)
        self.index = {key: position for position, key in enumerate(self.keys)}
        self.bandwidth = sanitize.freeze(
            np.array([topology.links[key].bandwidth for key in self.keys])
        )
        self.latency = sanitize.freeze(
            np.array([topology.links[key].latency for key in self.keys])
        )
        self.num_links = len(self.keys)
        self._closed_form = getattr(topology, "dimension_order_paths", None)
        self._pairs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, float]] = {}
        # CSR table over pairs for the array-traffic fast path: pair key
        # src * num_devices + dst -> row; rows concatenate into flat
        # link-index / weight arrays, rebuilt lazily when new pairs appear.
        num_devices = topology.num_devices
        self._row_of = np.full(num_devices * num_devices, -1, dtype=np.intp)
        self._row_indices: list[np.ndarray] = []
        self._row_weights: list[np.ndarray] = []
        self._row_latency: list[float] = []
        self._csr_dirty = False
        self._cat_indices = np.empty(0, dtype=np.intp)
        self._cat_weights = np.empty(0)
        self._cat_offsets = np.empty(0, dtype=np.intp)
        self._cat_counts = np.empty(0, dtype=np.intp)
        self._latencies = np.empty(0)
        # Primary-route per-link arrays for store-and-forward migration
        # pricing (no O1TURN split: a weight copy is a single transfer).
        # Entries carry the links' positions in ``self.keys`` so the
        # bandwidths can be re-gathered when the fabric degrades.
        self._migration_pairs: dict[
            tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        # Degraded-fabric bandwidth, cached per topology-health version.
        # While the topology is pristine (or every degradation is lifted)
        # this IS ``self.bandwidth`` — the identical array object — so the
        # fault-free pricing path is untouched, bit for bit.
        self._effective_bandwidth = self.bandwidth
        self._effective_version = 0

    def effective_bandwidth(self) -> np.ndarray:
        """Per-link bandwidth with current link degradations applied."""
        health = topology_health(self.topology)
        if health is None:
            return self.bandwidth
        if health.version != self._effective_version:
            factors = health.link_factors(self.keys)
            if factors is None:
                self._effective_bandwidth = self.bandwidth
            else:
                self._effective_bandwidth = sanitize.freeze(
                    self.bandwidth * factors
                )
            self._effective_version = health.version
        return self._effective_bandwidth

    def pair(self, src: int, dst: int) -> tuple[np.ndarray, np.ndarray, float]:
        """(link indices, per-byte weights, path latency) for one pair."""
        entry = self._pairs.get((src, dst))
        if entry is None:
            self._fill(np.array([src]), np.array([dst]))
            entry = self._pairs[(src, dst)]
        return entry

    def pair_rows(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Route rows of many pairs as one CSR block.

        Returns ``(offsets, indices, weights, latency)``: pair ``i``'s
        link indices and weights are ``indices[offsets[i]:offsets[i + 1]]``
        and the same slice of ``weights``, and its path latency is
        ``latency[i]`` — bitwise what :meth:`pair` returns for it.  Mesh
        rows come from the closed form and are not memoized.
        """
        if self._closed_form is None:
            entries = [
                self.pair(s, d) for s, d in zip(src.tolist(), dst.tolist())
            ]
            counts = np.array([entry[0].size for entry in entries], dtype=np.intp)
            offsets = np.zeros(counts.size + 1, dtype=np.intp)
            np.cumsum(counts, out=offsets[1:])
            return sanitize.freeze(
                (
                    offsets,
                    np.concatenate(
                        [np.empty(0, dtype=np.intp)]
                        + [entry[0] for entry in entries]
                    ),
                    np.concatenate([np.empty(0)] + [entry[1] for entry in entries]),
                    np.array([entry[2] for entry in entries], dtype=float),
                )
            )
        xy, yx = self._closed_form(src, dst)
        # The YX alternate is a second route only where it differs from XY
        # (source and destination differ in both coordinates).  The two
        # routes then share no link and neither repeats one, so every link
        # of a row carries its route share exactly once.
        two_routes = (xy != yx).any(axis=1)
        links = np.concatenate(
            (xy, np.where(two_routes[:, None], yx, -1)), axis=1
        )
        links.sort(axis=1)
        on_path = links >= 0
        counts = on_path.sum(axis=1)
        offsets = np.zeros(counts.size + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        share = np.where(two_routes, 0.5, 1.0)
        latency = np.maximum(self._path_latency(xy), self._path_latency(yx))
        return sanitize.freeze(
            (offsets, links[on_path], np.repeat(share, counts), latency)
        )

    def _path_latency(self, paths: np.ndarray) -> np.ndarray:
        """Per-row latency sums of ``-1``-padded link-position paths.

        Summed hop by hop in path order — ``np.add.accumulate`` never
        reassociates — so each sum is bitwise the scalar
        ``sum(link.latency for link in path)``; padding adds exact zeros.
        """
        if paths.shape[1] == 0:
            return np.zeros(paths.shape[0])
        hop_latency = np.where(paths >= 0, self.latency[paths], 0.0)
        return np.add.accumulate(hop_latency, axis=1)[:, -1]

    def prefetch(self, pairs: list[tuple[int, int]]) -> None:
        """Memoize every listed pair's route row, the missing ones in one batch."""
        missing = [pair for pair in dict.fromkeys(pairs) if pair not in self._pairs]
        if missing:
            src, dst = np.array(missing, dtype=np.intp).T
            self._fill(src, dst)

    def _fill(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Memoize the route rows of distinct, not yet cached pairs."""
        if self._closed_form is None:
            for s, d in zip(src.tolist(), dst.tolist()):
                self._store(s, d, self._walk_pair(s, d))
            return
        offsets, indices, weights, latency = self.pair_rows(src, dst)
        for row, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            lo, hi = offsets[row], offsets[row + 1]
            self._store(
                s, d, (indices[lo:hi], weights[lo:hi], float(latency[row]))
            )

    def _walk_pair(self, src: int, dst: int) -> tuple[np.ndarray, np.ndarray, float]:
        """One pair's route row from the topology's Link route.

        Only topologies without the mesh closed form get here; they route
        each pair along a single path, with no O1TURN alternate.
        """
        path = self.topology.route(src, dst)
        flat = np.array([self.index[link.key] for link in path], dtype=np.intp)
        indices, counts = np.unique(flat, return_counts=True)
        return indices, 1.0 * counts, sum(link.latency for link in path)

    def _store(
        self, src: int, dst: int, entry: tuple[np.ndarray, np.ndarray, float]
    ) -> None:
        indices, weights, latency = sanitize.freeze(entry)
        self._pairs[(src, dst)] = (indices, weights, latency)
        self._row_of[src * self.topology.num_devices + dst] = len(
            self._row_indices
        )
        self._row_indices.append(indices)
        self._row_weights.append(weights)
        self._row_latency.append(latency)
        self._csr_dirty = True

    def migration_pair(self, src: int, dst: int) -> tuple[np.ndarray, np.ndarray]:
        """(bandwidths, latencies) of the primary route's links, cached."""
        entry = self._migration_pairs.get((src, dst))
        if entry is None:
            path = self.topology.route(src, dst)
            entry = sanitize.freeze(
                (
                    np.array([link.bandwidth for link in path]),
                    np.array([link.latency for link in path]),
                    np.array(
                        [self.index[link.key] for link in path], dtype=np.intp
                    ),
                )
            )
            self._migration_pairs[(src, dst)] = entry
        bandwidths, latencies, positions = entry
        effective = self.effective_bandwidth()
        if effective is not self.bandwidth:
            bandwidths = effective[positions]
        return bandwidths, latencies

    def rows_for(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """CSR row per (src, dst) pair, computing missing routes on demand."""
        num_devices = self.topology.num_devices
        keys = src * num_devices + dst
        rows = self._row_of[keys]
        if (rows < 0).any():
            missing = np.unique(keys[rows < 0])
            self._fill(missing // num_devices, missing % num_devices)
            rows = self._row_of[keys]
        if self._csr_dirty:
            self._cat_indices = np.concatenate(self._row_indices)
            self._cat_weights = np.concatenate(self._row_weights)
            self._cat_counts = np.array(
                [row.size for row in self._row_indices], dtype=np.intp
            )
            ends = np.cumsum(self._cat_counts)
            self._cat_offsets = ends - self._cat_counts
            self._latencies = np.array(self._row_latency)
            self._csr_dirty = False
        return rows


def _route_cache(topology: Topology) -> _RouteCache:
    cache = getattr(topology, "_phase_route_cache", None)
    if cache is None or cache.topology is not topology:
        cache = _RouteCache(topology)
        topology._phase_route_cache = cache
    return cache


def migration_route_arrays(
    topology: Topology, src: int, dst: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cached (bandwidths, latencies) arrays of the primary src->dst route.

    Store-and-forward migration pricing re-walks the same few routes every
    trigger; this shares the per-topology route cache instead of rebuilding
    Link lists each time.
    """
    return _route_cache(topology).migration_pair(src, dst)


def route_pair_arrays(
    topology: Topology, src: int, dst: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Cached (link indices, per-byte link weights, path latency) for a pair.

    The same CSR route rows :func:`simulate_phase` charges flows with —
    O1TURN splitting pre-merged into the weights.  On meshes the row comes
    from the closed-form dimension-order paths, not a route walk; the
    all-to-all pricers read whole destination columns of these rows at
    once through :func:`route_rows`.  Treat the returned arrays as frozen.
    """
    return _route_cache(topology).pair(src, dst)


def route_rows(
    topology: Topology, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`route_pair_arrays` for whole arrays of pairs, as one CSR block.

    Returns ``(offsets, link indices, weights, latency)`` with pair ``i``'s
    row at ``offsets[i]:offsets[i + 1]`` — see :meth:`_RouteCache.pair_rows`.
    """
    return _route_cache(topology).pair_rows(src, dst)


def phase_durations_from_link_volumes(
    topology: Topology,
    link_volumes: np.ndarray,
    worst_latencies: np.ndarray,
) -> np.ndarray:
    """Batched cut-through durations from precomputed per-link volumes.

    Applies the same Eq. 1 semantics as :func:`simulate_phase` — busiest
    link's drain time plus the worst active flow's cumulative hop latency —
    over any leading batch axes (the layer axis of a stacked serving
    iteration).  ``link_volumes`` has shape ``(..., num_links)`` in route
    cache link order; ``worst_latencies`` broadcasts against the leading
    axes.
    """
    serialization = (
        link_volumes / _route_cache(topology).effective_bandwidth()
    ).max(axis=-1)
    return serialization + worst_latencies


def simulate_phase(
    topology: Topology,
    flows: TrafficMatrix | ArrayTrafficMatrix | list[Flow],
    store_and_forward: bool = False,
) -> PhaseResult:
    """Route every flow and apply the congested Eq. 1 model.

    Every flow's bytes are charged to each link on its deterministic route.
    The default cut-through (wormhole) semantics end the phase when the
    busiest link drains, plus the worst flow's cumulative per-hop latency —
    distance still costs, because longer paths load more links and pay more
    latency.  With ``store_and_forward=True`` a flow instead drains through
    the accumulated queue of *every* link on its path (the literal reading
    of Eq. 1's hops multiplier); that is the right model for single
    transfers such as ring steps, but over-penalises large concurrent
    all-to-alls, so it is opt-in.
    """
    if isinstance(flows, ArrayTrafficMatrix):
        if not store_and_forward:
            return _simulate_cut_through_arrays(topology, flows)
        triples = [
            (int(s), int(d), float(v))
            for s, d, v in zip(flows.src, flows.dst, flows.volume)
        ]
    elif isinstance(flows, TrafficMatrix):
        # (src, dst, volume) triples straight off the matrix — the cut-through
        # path never needs Flow objects, and a 256-device all-to-all has
        # thousands of them per iteration.
        triples = [(src, dst, volume) for (src, dst), volume in flows.items()]
    else:
        triples = [
            (flow.src, flow.dst, flow.volume)
            for flow in flows
            if flow.volume > 0 and flow.src != flow.dst
        ]

    if not triples:
        return PhaseResult(duration=0.0)

    if not store_and_forward:
        return _simulate_cut_through(topology, triples)

    flow_list = [Flow(src, dst, volume) for src, dst, volume in triples]
    route_alternate = getattr(topology, "route_alternate", None)

    link_bytes: dict[tuple[int, int], float] = {}
    weighted_paths: list[list[tuple[object, float]]] = []
    worst_latency = 0.0
    total_volume = 0.0
    for flow in flow_list:
        total_volume += flow.volume
        primary = topology.route(flow.src, flow.dst)
        # O1TURN-style multipath: meshes split each flow evenly across the
        # XY and YX dimension orders when they differ.
        routes = [primary]
        if route_alternate is not None:
            alternate = route_alternate(flow.src, flow.dst)
            if [link.key for link in alternate] != [link.key for link in primary]:
                routes.append(alternate)
        share = flow.volume / len(routes)
        for path in routes:
            weighted_paths.append([(link, share) for link in path])
            path_latency = 0.0
            for link in path:
                key = link.key
                link_bytes[key] = link_bytes.get(key, 0.0) + share
                path_latency += link.latency
            worst_latency = max(worst_latency, path_latency)

    busy = {
        key: volume / degraded_bandwidth(topology, key)
        for key, volume in link_bytes.items()
    }
    serialization = max(
        sum(busy[link.key] for link, _share in path)
        for path in weighted_paths
    )
    return PhaseResult(
        duration=serialization + worst_latency,
        link_bytes=link_bytes,
        serialization_time=serialization,
        latency_time=worst_latency,
        total_volume=total_volume,
    )


def _simulate_cut_through_arrays(
    topology: Topology, traffic: ArrayTrafficMatrix
) -> PhaseResult:
    """Cut-through pricing without the per-pair Python loop.

    Pairs gather their cached route rows from the CSR table, volumes expand
    across each row's links with one ``repeat``, and a single ``bincount``
    charges every link — the per-link accumulation visits the same terms in
    the same order as the triple-loop path, so results match it bitwise.
    """
    if not traffic:
        return PhaseResult(duration=0.0)
    cache = _route_cache(topology)
    rows = cache.rows_for(traffic.src, traffic.dst)
    counts = cache._cat_counts[rows]
    starts = np.repeat(cache._cat_offsets[rows], counts)
    ends = np.cumsum(counts)
    within = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    gather = starts + within
    link_indices = cache._cat_indices[gather]
    weights = cache._cat_weights[gather] * np.repeat(traffic.volume, counts)
    volumes = np.bincount(link_indices, weights=weights, minlength=cache.num_links)
    serialization = float((volumes / cache.effective_bandwidth()).max())
    worst_latency = float(cache._latencies[rows].max())
    link_bytes = {
        cache.keys[position]: float(volumes[position])
        for position in np.nonzero(volumes)[0]
    }
    return PhaseResult(
        duration=serialization + worst_latency,
        link_bytes=link_bytes,
        serialization_time=serialization,
        latency_time=worst_latency,
        total_volume=traffic.total_volume,
    )


def _simulate_cut_through(
    topology: Topology, triples: list[tuple[int, int, float]]
) -> PhaseResult:
    """Vectorized cut-through pricing: one bincount over cached routes."""
    cache = _route_cache(topology)
    cache.prefetch([(src, dst) for src, dst, _volume in triples])
    pair = cache.pair
    index_arrays = []
    weight_arrays = []
    worst_latency = 0.0
    total_volume = 0.0
    for src, dst, volume in triples:
        indices, weights, latency = pair(src, dst)
        index_arrays.append(indices)
        weight_arrays.append(weights * volume)
        if latency > worst_latency:
            worst_latency = latency
        total_volume += volume
    volumes = np.bincount(
        np.concatenate(index_arrays),
        weights=np.concatenate(weight_arrays),
        minlength=cache.num_links,
    )
    serialization = float((volumes / cache.effective_bandwidth()).max())
    link_bytes = {
        cache.keys[position]: float(volumes[position])
        for position in np.nonzero(volumes)[0]
    }
    return PhaseResult(
        duration=serialization + worst_latency,
        link_bytes=link_bytes,
        serialization_time=serialization,
        latency_time=worst_latency,
        total_volume=total_volume,
    )
