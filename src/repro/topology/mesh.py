"""2-D mesh topologies: single wafer and multi-wafer rows.

Coordinates follow the paper's ``D[x, y]`` convention with ``x`` the row and
``y`` the column, except 0-based.  Routing is dimension-ordered (XY): first
along the row dimension, then along the column dimension — the standard
deadlock-free choice for wafer meshes — with the YX order as the O1TURN
alternate.

Every dimension-order route is a straight run of links along one dimension
followed by a run along the other, so routes have a closed form:
:meth:`MeshTopology.dimension_order_paths` emits the XY and YX paths of
whole arrays of ``(src, dst)`` pairs at once as link positions, reading a
per-node table of outgoing links recorded when the mesh is built.
``route`` and ``route_alternate`` read their :class:`Link` lists from the
same closed form, and the network layer builds whole destination columns
of route rows from it without touching a :class:`Link` object.
"""

from dataclasses import dataclass

import numpy as np

from repro import sanitize
from repro.hardware.interconnect import WSC_CROSS_WAFER, WSC_LINK, InterconnectSpec
from repro.memo import instance_memo
from repro.topology.base import CachedRoutingMixin, Link, Topology

#: Columns of ``MeshTopology._out_links``: one step to a larger row index,
#: a smaller row index, a larger column index, a smaller column index.
DOWN, UP, RIGHT, LEFT = range(4)
#: Directions of a forward (index-increasing) and a backward hop along the
#: row leg and the column leg of a route.
_FORWARD = np.array([[DOWN], [RIGHT]])
_BACKWARD = np.array([[UP], [LEFT]])


@dataclass(frozen=True, order=True)
class Coord:
    """Mesh coordinate: ``x`` is the row index, ``y`` the column index."""

    x: int
    y: int

    def manhattan(self, other: "Coord") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y)


class MeshTopology(CachedRoutingMixin, Topology):
    """A ``height x width`` mesh of devices with nearest-neighbour links.

    Args:
        height: number of rows.
        width: number of columns.
        link: link class for every mesh edge (defaults to the paper's
            on-wafer die-to-die spec).
    """

    def __init__(
        self,
        height: int,
        width: int,
        link: InterconnectSpec = WSC_LINK,
    ) -> None:
        if height <= 0 or width <= 0:
            raise ValueError(f"mesh dimensions must be positive, got {height}x{width}")
        super().__init__(num_devices=height * width)
        self.height = height
        self.width = width
        self.link_spec = link
        self._build_links()

    def _build_links(self) -> None:
        # out_links[node, direction]: position in ``self.links`` of the
        # node's outgoing link one step DOWN/UP/RIGHT/LEFT (-1 at an edge).
        out_links = np.full((self.num_devices, 4), -1, dtype=np.intp)
        for x in range(self.height):
            for y in range(self.width):
                node = self.device_at(Coord(x, y))
                if x + 1 < self.height:
                    below = self.device_at(Coord(x + 1, y))
                    out_links[node, DOWN] = len(self._links)
                    out_links[below, UP] = len(self._links) + 1
                    self._add_bidirectional(
                        node, below, self._edge_bandwidth(Coord(x, y), Coord(x + 1, y)),
                        self._edge_latency(Coord(x, y), Coord(x + 1, y)),
                    )
                if y + 1 < self.width:
                    right = self.device_at(Coord(x, y + 1))
                    out_links[node, RIGHT] = len(self._links)
                    out_links[right, LEFT] = len(self._links) + 1
                    self._add_bidirectional(
                        node, right, self._edge_bandwidth(Coord(x, y), Coord(x, y + 1)),
                        self._edge_latency(Coord(x, y), Coord(x, y + 1)),
                    )
        self._out_links = sanitize.freeze(out_links)
        self._leg_key_step = sanitize.freeze(np.array([[4 * self.width], [4]]))
        self._link_list = list(self._links.values())

    def _edge_bandwidth(self, a: Coord, b: Coord) -> float:
        """Per-direction bandwidth of the mesh edge a—b (hook for subclasses)."""
        return self.link_spec.bandwidth

    def _edge_latency(self, a: Coord, b: Coord) -> float:
        return self.link_spec.link_latency

    # -- coordinate helpers -------------------------------------------------

    def coord_of(self, device: int) -> Coord:
        if not self.is_device(device):
            raise ValueError(f"device {device} out of range (0..{self.num_devices - 1})")
        return Coord(device // self.width, device % self.width)

    def device_at(self, coord: Coord) -> int:
        if not (0 <= coord.x < self.height and 0 <= coord.y < self.width):
            raise ValueError(f"coordinate {coord} outside {self.height}x{self.width} mesh")
        return coord.x * self.width + coord.y

    def manhattan(self, src: int, dst: int) -> int:
        return self.coord_of(src).manhattan(self.coord_of(dst))

    def neighbors(self, device: int) -> list[int]:
        coord = self.coord_of(device)
        out = []
        for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            x, y = coord.x + dx, coord.y + dy
            if 0 <= x < self.height and 0 <= y < self.width:
                out.append(self.device_at(Coord(x, y)))
        return out

    # -- routing ------------------------------------------------------------

    def dimension_order_paths(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """XY and YX paths of many ``(src, dst)`` pairs, as link positions.

        Returns ``(xy, yx)``, two ``(pairs, max_hops)`` intp arrays of
        positions in ``self.links`` order: row ``i`` lists pair ``i``'s
        links in path order, padded with ``-1`` after its last hop.  XY
        runs along the row dimension first, then the column dimension; YX
        the other way round.  Both have Manhattan-distance length.
        """
        src = np.asarray(src, dtype=np.intp)
        ends = np.stack((src, np.asarray(dst, dtype=np.intp)))
        if ends.size and (ends.min() < 0 or ends.max() >= self.num_devices):
            raise ValueError(f"devices out of range (0..{self.num_devices - 1})")
        x, y = np.divmod(ends, self.width)
        # Legs on axis 0: the row leg, then the column leg.  A hop's
        # outgoing link is out_links[node, direction], read through the
        # flat key 4 * node + direction, so a row hop moves the key by
        # +-4 * width and a column hop by +-4.
        delta = np.stack((x[1] - x[0], y[1] - y[0]))
        length = np.abs(delta)
        step = np.sign(delta) * self._leg_key_step
        direction = np.where(delta > 0, _FORWARD, _BACKWARD)
        # Axis 0 of the paths is the order: XY walks the legs as stacked,
        # YX in reverse.  The second leg starts at the corner, ``length``
        # hops of the first leg's step away from the source.
        first_len = length[..., None]
        first_step = step[..., None]
        second_step = step[::-1, :, None]
        first_key = (4 * src + direction)[..., None]
        second_key = (4 * src + direction[::-1])[..., None] + first_len * (
            first_step - second_step
        )
        hops = length[0] + length[1]
        hop = np.arange(hops.max() if hops.size else 0)
        keys = np.where(
            hop < first_len, first_key + hop * first_step, second_key + hop * second_step
        )
        positions = self._out_links.ravel().take(keys, mode="clip")
        paths = np.where(hop < hops[:, None], positions, -1)
        return paths[0], paths[1]

    def _links_on(self, paths: np.ndarray) -> list[list[Link]]:
        links = self._link_list
        return [
            [links[position] for position in path if position >= 0]
            for path in paths.tolist()
        ]

    def _route_batch(self, pairs: list[tuple[int, int]]) -> list[list[Link]]:
        """Dimension-ordered XY routing: rows first, then columns."""
        src, dst = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        xy, _ = self.dimension_order_paths(src, dst)
        return self._links_on(xy)

    def _route_impl(self, src: int, dst: int) -> list[Link]:
        return self._route_batch([(src, dst)])[0]

    @instance_memo("_alternate_route_memo")
    def _alternate_route_cached(self, src: int, dst: int) -> tuple[Link, ...]:
        _, yx = self.dimension_order_paths([src], [dst])
        return tuple(self._links_on(yx)[0])

    def route_alternate(self, src: int, dst: int) -> list[Link]:
        """The YX (columns-first) path — the second O1TURN route class.

        Wafer NoCs balance load across the two dimension orders; the phase
        simulator splits each flow evenly between ``route`` and this path.
        """
        return list(self._alternate_route_cached(src, dst))

    def hops(self, src: int, dst: int) -> int:
        """XY routes are shortest paths, so hop count is Manhattan distance."""
        return self.manhattan(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.height}x{self.width})"


class MultiWaferTopology(MeshTopology):
    """A row of ``num_wafers`` meshes joined along vertical borders.

    The combined system is a ``wafer_height x (num_wafers * wafer_width)``
    mesh in which the links crossing a wafer border use the (slower per-link)
    cross-wafer spec: the paper gives an aggregate border bandwidth shared by
    the ``wafer_height`` edge-die link pairs on that border.
    """

    def __init__(
        self,
        num_wafers: int,
        wafer_height: int,
        wafer_width: int,
        intra_link: InterconnectSpec = WSC_LINK,
        cross_border: InterconnectSpec = WSC_CROSS_WAFER,
    ) -> None:
        if num_wafers <= 0:
            raise ValueError(f"num_wafers must be positive, got {num_wafers}")
        self.num_wafers = num_wafers
        self.wafer_height = wafer_height
        self.wafer_width = wafer_width
        self.cross_border = cross_border
        # Per-link bandwidth: the aggregate border bandwidth divided across
        # the wafer_height edge dies on that border, capped at the on-wafer
        # link rate (a border die cannot out-run its die-to-die SerDes).
        self._cross_link_bandwidth = min(
            cross_border.bandwidth / wafer_height, intra_link.bandwidth
        )
        super().__init__(
            height=wafer_height, width=num_wafers * wafer_width, link=intra_link
        )

    def _is_cross_wafer_edge(self, a: Coord, b: Coord) -> bool:
        return a.y // self.wafer_width != b.y // self.wafer_width

    def _edge_bandwidth(self, a: Coord, b: Coord) -> float:
        if self._is_cross_wafer_edge(a, b):
            return self._cross_link_bandwidth
        return self.link_spec.bandwidth

    def _edge_latency(self, a: Coord, b: Coord) -> float:
        if self._is_cross_wafer_edge(a, b):
            return self.cross_border.link_latency
        return self.link_spec.link_latency

    # -- wafer helpers ------------------------------------------------------

    def wafer_of(self, device: int) -> int:
        return self.coord_of(device).y // self.wafer_width

    def wafer_devices(self, wafer: int) -> list[int]:
        if not (0 <= wafer < self.num_wafers):
            raise ValueError(f"wafer {wafer} out of range (0..{self.num_wafers - 1})")
        return [
            device
            for device in self.devices
            if self.wafer_of(device) == wafer
        ]

    def local_coord(self, device: int) -> Coord:
        """Coordinate of a device within its own wafer."""
        coord = self.coord_of(device)
        return Coord(coord.x, coord.y % self.wafer_width)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiWaferTopology({self.num_wafers}x"
            f"({self.wafer_height}x{self.wafer_width}))"
        )
