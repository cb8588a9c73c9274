"""Road network, OD structure, and the explicitly enumerated path sets.

Paths are input data, not computed: generating a good path set is a separate
problem and the equilibrium model takes the set as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import TimeGrid

__all__ = ["Link", "Path", "Network", "StructureError", "validate", "max_exit_capacity"]


class StructureError(ValueError):
    """The network object is structurally unusable (duplicate ids, empty sets)."""


@dataclass(frozen=True)
class Link:
    """Directed link with free-flow traversal time and a finite exit capacity."""

    id: str
    tail: str
    head: str
    free_flow_time: float  # hours
    exit_capacity: float  # vehicles/hour

    def __post_init__(self) -> None:
        for name in ("free_flow_time", "exit_capacity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"link {self.id}: {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Path:
    """Ordered sequence of link ids connecting one OD pair."""

    id: str
    link_ids: tuple[str, ...]
    origin: str
    destination: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_ids", tuple(self.link_ids))


# the users of a link: (path index, position on the path) of each path through it
Users = tuple[tuple[int, int], ...]


class Cycle(NamedTuple):
    """A strong component of the succession graph that lies on a cycle."""

    links: tuple[tuple[Link, Users], ...]
    inner: frozenset[tuple[int, int]]  # the users that enter from a link of the cycle


class Depth(NamedTuple):
    """The links at one topological depth of the succession graph."""

    links: tuple[tuple[Link, Users], ...]  # on no succession cycle
    cycles: tuple[Cycle, ...]


@dataclass(frozen=True)
class Network:
    """Immutable network: links, paths and the shared desired arrival time.

    The OD pairs are those of the paths, in order of first appearance;
    ``path_od`` holds each path's OD pair index (read-only)."""

    links: tuple[Link, ...]
    paths: tuple[Path, ...]
    arrival_target: float  # desired arrival time, hours
    od_pairs: tuple[tuple[str, str], ...] = field(init=False)
    path_od: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        links = tuple(self.links)
        paths = tuple(self.paths)
        if len({l.id for l in links}) != len(links):
            raise StructureError("duplicate link ids")
        if len({p.id for p in paths}) != len(paths):
            raise StructureError("duplicate path ids")
        od_index: dict[tuple[str, str], int] = {}
        path_od = np.array([od_index.setdefault((p.origin, p.destination), len(od_index))
                            for p in paths], dtype=np.intp)
        path_od.setflags(write=False)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "od_pairs", tuple(od_index))
        object.__setattr__(self, "path_od", path_od)

    @cached_property
    def link_by_id(self) -> dict[str, Link]:
        return {l.id: l for l in self.links}

    @cached_property
    def od_paths(self) -> tuple[tuple[int, ...], ...]:
        """Per OD pair, the indices of its paths, sorted by path id.

        The sort fixes the tie-breaking order used by best-response argmins.
        """
        out: list[list[int]] = [[] for _ in self.od_pairs]
        for p, w in enumerate(self.path_od.tolist()):
            out[w].append(p)
        return tuple(tuple(sorted(idx, key=lambda i: self.paths[i].id)) for idx in out)

    @cached_property
    def od_rows(self) -> np.ndarray:
        """(OD pairs, most paths of one pair) path indices, read-only: row w
        lists od_paths[w] and repeats its last path to fill the row. A
        reduction along a row meets the pair's paths in od_paths order."""
        width = max(len(paths) for paths in self.od_paths)
        rows = np.array([paths + paths[-1:] * (width - len(paths)) for paths in self.od_paths],
                        dtype=np.intp)
        rows.setflags(write=False)
        return rows

    def od_sum(self, per_path: np.ndarray) -> np.ndarray:
        """Per OD pair, the sum of a per-path vector over the pair's paths."""
        return np.bincount(self.path_od, weights=per_path, minlength=len(self.od_pairs))

    @cached_property
    def _od_take(self) -> slice | np.ndarray:
        """The index by_od applies: all rows as they stand (a view, no copy)
        when the paths already lie OD pair after OD pair in od_paths order,
        as many per pair; else od_rows."""
        rows = self.od_rows
        return slice(None) if np.array_equal(rows.ravel(), np.arange(len(self.paths))) else rows

    def by_od(self, x: np.ndarray) -> np.ndarray:
        """A (paths, n) array regrouped as one row per OD pair: its paths'
        rows in od_paths order, end to end (a row repeats the last path of a
        pair with fewer paths than the widest)."""
        return x[self._od_take].reshape(len(self.od_rows), -1)

    def od_min(self, x: np.ndarray) -> np.ndarray:
        """Per OD pair, the least entry of a (paths, n) array over the pair's
        paths and cells."""
        return self.by_od(x).min(axis=1)

    def od_argmin(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per OD pair, the (path index, cell) of the least entry of a
        (paths, n) array; ties break to the lowest path id, then the earliest
        cell."""
        # argmin returns the first minimizer of each row of by_od, which runs
        # through the pair's paths in od_paths order and each path's cells
        k, j = np.divmod(self.by_od(x).argmin(axis=1), x.shape[1])
        return self.od_rows[np.arange(len(self.od_rows)), k], j

    def path_links(self, path_index: int) -> tuple[Link, ...]:
        by_id = self.link_by_id
        return tuple(by_id[lid] for lid in self.paths[path_index].link_ids)

    @cached_property
    def routes(self) -> tuple[tuple[Link, ...], ...]:
        """Per path index, its links in travel order."""
        return tuple(self.path_links(p) for p in range(len(self.paths)))

    @cached_property
    def loading_depths(self) -> tuple[Depth, ...]:
        """Links grouped by topological depth in the succession graph (link b
        succeeds link a when some path uses b right after a). The strong
        components of that graph are taken as units: a component's depth is
        one more than the deepest of its predecessors, 0 without one, so
        nothing at a depth feeds anything else at it. Each link comes with its
        users: the (path index, position on the path) of every path through
        it. A component of more than one link, or a link that succeeds
        itself, lies on a succession cycle."""
        users: dict[str, list[tuple[int, int]]] = {l.id: [] for l in self.links}
        succ: dict[str, dict[str, None]] = {l.id: {} for l in self.links}  # ordered sets
        pred: dict[str, dict[str, None]] = {l.id: {} for l in self.links}
        for p, route in enumerate(self.routes):
            for k, link in enumerate(route):
                users[link.id].append((p, k))
            for a, b in zip(route, route[1:]):
                succ[a.id][b.id] = pred[b.id][a.id] = None
        # Kosaraju: depth-first finishing order on the graph, then components
        # collected on the reversed graph in reverse finishing order, which
        # comes out topologically sorted
        finished: list[str] = []
        seen: set[str] = set()
        for root in succ:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(succ[root]))]
            while stack:
                node, todo = stack[-1]
                for b in todo:
                    if b not in seen:
                        seen.add(b)
                        stack.append((b, iter(succ[b])))
                        break
                else:
                    stack.pop()
                    finished.append(node)
        position = {lid: i for i, lid in enumerate(succ)}
        depth_of: dict[str, int] = {}
        depths: list[tuple[list, list]] = []  # per depth: acyclic links, cycles
        seen.clear()
        for root in reversed(finished):
            if root in seen:
                continue
            seen.add(root)
            comp, stack = [], [root]
            while stack:
                node = stack.pop()
                comp.append(node)
                for a in pred[node]:
                    if a not in seen:
                        seen.add(a)
                        stack.append(a)
            ids = set(comp)
            # every outside predecessor belongs to an earlier component
            depth = 1 + max((depth_of[a] for b in comp for a in pred[b] if a not in ids),
                            default=-1)
            depth_of.update(dict.fromkeys(comp, depth))
            if depth == len(depths):
                depths.append(([], []))
            links = tuple((self.link_by_id[lid], tuple(users[lid]))
                          for lid in sorted(comp, key=position.__getitem__))
            inner = frozenset((p, k) for _, link_users in links for p, k in link_users
                              if k > 0 and self.routes[p][k - 1].id in ids)
            if inner:
                depths[depth][1].append(Cycle(links, inner))
            else:
                depths[depth][0].extend(links)
        return tuple(Depth(tuple(links), tuple(cycles)) for links, cycles in depths)


def validate(network: Network, grid: TimeGrid) -> list[str]:
    """Structural checks. Returns a list of human-readable violations;
    an empty list means the network is usable with the given grid."""
    violations: list[str] = []
    if not network.paths:
        violations.append("network has no paths")
    by_id = network.link_by_id
    for link in network.links:
        if link.exit_capacity <= 0.0:
            violations.append(f"link {link.id}: nonpositive capacity")
        if link.free_flow_time <= 0.0:
            violations.append(f"link {link.id}: nonpositive free-flow time")
    for path in network.paths:
        if not path.link_ids:
            violations.append(f"path {path.id}: empty link sequence")
            continue
        missing = [lid for lid in path.link_ids if lid not in by_id]
        if missing:
            violations.append(f"path {path.id}: unknown links {missing}")
            continue
        if len(set(path.link_ids)) != len(path.link_ids):
            violations.append(f"path {path.id}: repeated link")
        links = [by_id[lid] for lid in path.link_ids]
        if links[0].tail != path.origin:
            violations.append(f"path {path.id}: does not start at origin {path.origin}")
        if links[-1].head != path.destination:
            violations.append(
                f"path {path.id}: does not end at destination {path.destination}"
            )
        for a, b in zip(links, links[1:]):
            if a.head != b.tail:
                violations.append(
                    f"path {path.id}: links {a.id} and {b.id} are not adjacent"
                )
    if not network.arrival_target < grid.tf:
        violations.append("desired arrival time must precede the horizon end")
    return violations


def max_exit_capacity(network: Network) -> float:
    """Largest link exit capacity in the network."""
    if not network.links:
        raise StructureError("network has no links")
    return max(l.exit_capacity for l in network.links)
