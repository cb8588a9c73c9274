"""Road network, OD structure, and the explicitly enumerated path sets.

Paths are input data, not computed: generating a good path set is a separate
problem and the equilibrium model takes the set as given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import finite_real

__all__ = ["Link", "Path", "Network", "StructureError"]


class StructureError(ValueError):
    """The network is structurally unusable: no paths, duplicate ids, or a
    path that is not a chain of its network's links from its origin to its
    destination."""


@dataclass(frozen=True)
class Link:
    """Directed link with a positive free-flow traversal time and a positive,
    finite exit capacity: the point queue's delay is continuous only then."""

    id: str
    tail: str
    head: str
    free_flow_time: float  # hours
    exit_capacity: float  # vehicles/hour

    def __post_init__(self) -> None:
        for name in ("free_flow_time", "exit_capacity"):
            value = finite_real(getattr(self, name), f"link {self.id}: {name}")
            if not value > 0.0:
                raise ValueError(f"link {self.id}: {name} must be finite and positive, "
                                 f"got {value!r}")


@dataclass(frozen=True)
class Path:
    """Ordered sequence of link ids connecting one OD pair."""

    id: str
    link_ids: tuple[str, ...]
    origin: str
    destination: str

    def __post_init__(self) -> None:
        if isinstance(self.link_ids, str):  # tuple() would split it into characters
            raise StructureError(f"path {self.id}: link_ids must be a sequence of link ids, "
                                 f"got the string {self.link_ids!r}")
        object.__setattr__(self, "link_ids", tuple(self.link_ids))


# the users of a link: (path index, position on the path) of each path through it
Users = tuple[tuple[int, int], ...]


class Depth(NamedTuple):
    """The links at one topological depth of the succession graph."""

    links: tuple[tuple[Link, Users], ...]  # on no succession cycle
    cycles: tuple[tuple[tuple[Link, Users], ...], ...]  # the links of each cycle


@dataclass(frozen=True)
class Network:
    """Immutable network: links, paths and the shared desired arrival time.

    The OD pairs are those of the paths, in order of first appearance;
    ``path_od`` holds each path's OD pair index (read-only). Construction
    raises a ValueError for an arrival target that is no finite real number,
    and one StructureError that lists every structural violation."""

    links: tuple[Link, ...]
    paths: tuple[Path, ...]
    arrival_target: float  # desired arrival time, hours
    od_pairs: tuple[tuple[str, str], ...] = field(init=False)
    path_od: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        finite_real(self.arrival_target, "network arrival_target")
        links = tuple(self.links)
        paths = tuple(self.paths)
        violations = [] if paths else ["network has no paths"]
        for kind, ids in (("link", [l.id for l in links]), ("path", [p.id for p in paths])):
            violations += [f"{kind} {i}: duplicate id" for i, k in Counter(ids).items() if k > 1]
        by_id = {l.id: l for l in links}
        for path in paths:
            violations += _path_violations(path, by_id)
        if violations:
            raise StructureError("; ".join(violations))
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
        return np.minimum.reduce(self.by_od(x), axis=1)  # .min without its wrapper

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
    def free_flow_delays(self) -> dict:
        """The effective delays of a loading in which no link queues, one
        read-only (paths, n) array per (grid, penalty). Such delays do not
        depend on the flows. solver.f_map alone fills and reads it."""
        return {}

    @cached_property
    def clearance_terms(self) -> tuple[float, float, int]:
        """The least exit capacity, the total free-flow time (summed in
        network order) and the number of the links that some path uses
        (dnl.default_horizon and the room load adds to it)."""
        used = {link.id for route in self.routes for link in route}
        links = [l for l in self.links if l.id in used]
        # a loop, as in dnl.load: from Python 3.12, sum() of floats is compensated
        total_fft = 0.0
        for link in links:
            total_fft += link.free_flow_time
        return min(l.exit_capacity for l in links), total_fft, len(links)

    @cached_property
    def queue_bound_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | None]:
        """The inputs of dnl.cannot_queue: the exit capacities of the links
        that some path uses, in network order; the path index of each of
        their users, link after link; where each link's users start; and the
        depth count plus the most users of one link, None on a network with a
        succession cycle."""
        users: dict[str, list[int]] = {l.id: [] for l in self.links}
        for p, route in enumerate(self.routes):
            for link in route:
                users[link.id].append(p)
        used = [(l.exit_capacity, users[l.id]) for l in self.links if users[l.id]]
        caps = np.array([cap for cap, _ in used])
        paths = np.array([p for _, ps in used for p in ps], dtype=np.intp)
        starts = np.cumsum([0] + [len(ps) for _, ps in used[:-1]])
        for a in (caps, paths, starts):
            a.setflags(write=False)
        depths = self.loading_depths
        if any(d.cycles for d in depths):
            return caps, paths, starts, None
        return caps, paths, starts, len(depths) + max(map(len, users.values()))

    def copies(self, b: int, stack: "Network | None" = None) -> "Network":
        """b disjoint copies of the network, laid copy after copy: copy k
        holds every link, node and path with its id prefixed by "k#", so path
        p of copy k is path k * len(paths) + p and OD pair w of copy k is OD
        pair k * len(od_pairs) + w. The prefix keeps each OD pair's paths in
        their od_paths order; a suffix would not ("p!#0" sorts before "p#0").

        The copies share no link, so loading them with their flows stacked
        gives each copy bit for bit the curves of its own loading. The
        stack's default horizon exceeds any one copy's, which changes
        nothing: the default horizon already guarantees that each copy
        clears, ring roads included, so no count is cut at its end.

        Given ``stack``, this network's own copies(B) for some B >= b, the
        result is its first b copies. It adopts the stack's first links and
        paths, OD pairs and path_od as they stand, validated when the stack
        was built, so it runs no constructor; routes, od_paths, od_rows,
        queue_bound_terms and loading_depths are sliced from the stack's.
        Those of copy k lie after copy k-1's, except at each depth of
        loading_depths, where the copies lie last first, so the first b are
        the last b/B share. The rest, the free-flow memo included, is the
        copies' own. A stack that this network's copies(B) did not build (a
        copy of an equal network, the network itself, or first copies) is a
        ValueError."""
        if stack is not None:
            if stack.__dict__.get("_copies_of") is not self:
                raise ValueError("stack must be this network's own copies(B), built by "
                                 "copies without a stack")
            n_copies = len(stack.paths) // len(self.paths)
            if not 1 <= b <= n_copies:
                raise ValueError(f"b must be between 1 and the stack's {n_copies} copies, "
                                 f"got {b!r}")
            n_paths, n_od = b * len(self.paths), b * len(self.od_pairs)
            caps, users, starts, bound = stack.queue_bound_terms
            n_used = len(caps) // n_copies * b
            od_take = stack._od_take
            net = object.__new__(Network)
            net.__dict__.update(
                links=stack.links[:b * len(self.links)],
                paths=stack.paths[:n_paths],
                arrival_target=self.arrival_target,
                od_pairs=stack.od_pairs[:n_od],
                path_od=stack.path_od[:n_paths],
                routes=stack.routes[:n_paths],
                od_paths=stack.od_paths[:n_od],
                od_rows=stack.od_rows[:n_od],
                _od_take=od_take if isinstance(od_take, slice) else od_take[:n_od],
                queue_bound_terms=(caps[:n_used], users[:len(users) // n_copies * b],
                                   starts[:n_used], bound),
                loading_depths=tuple(
                    Depth(d.links[len(d.links) // n_copies * (n_copies - b):],
                          d.cycles[len(d.cycles) // n_copies * (n_copies - b):])
                    for d in stack.loading_depths))
            return net
        links = tuple(Link(f"{k}#{l.id}", f"{k}#{l.tail}", f"{k}#{l.head}", l.free_flow_time,
                           l.exit_capacity) for k in range(b) for l in self.links)
        paths = tuple(Path(f"{k}#{p.id}", tuple(f"{k}#{lid}" for lid in p.link_ids),
                           f"{k}#{p.origin}", f"{k}#{p.destination}")
                      for k in range(b) for p in self.paths)
        net = Network(links, paths, self.arrival_target)
        net.__dict__["_copies_of"] = self  # the provenance a stack argument must show
        return net

    @cached_property
    def loading_depths(self) -> tuple[Depth, ...]:
        """Links grouped by topological depth in the succession graph (link b
        succeeds link a when some path uses b right after a). The strong
        components of that graph are taken as units: a component's depth is
        one more than the deepest of its predecessors, 0 without one, so
        nothing at a depth feeds anything else at it. Each link comes with its
        users: the (path index, position on the path) of every path through
        it. A component lies on a succession cycle exactly when it has more
        than one link: no path repeats a link, so no link succeeds itself."""
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
            if len(links) > 1:
                depths[depth][1].append(links)
            else:
                depths[depth][0].extend(links)
        return tuple(Depth(tuple(links), tuple(cycles)) for links, cycles in depths)



def _path_violations(path: Path, by_id: dict[str, Link]) -> list[str]:
    """What keeps a path from being a chain of the given links that runs from
    its origin to its destination, each link once."""
    if not path.link_ids:
        return [f"path {path.id}: empty link sequence"]
    missing = [lid for lid in path.link_ids if lid not in by_id]
    if missing:
        return [f"path {path.id}: unknown links {missing}"]
    violations = []
    if len(set(path.link_ids)) != len(path.link_ids):
        violations.append(f"path {path.id}: repeated link")
    links = [by_id[lid] for lid in path.link_ids]
    if links[0].tail != path.origin:
        violations.append(f"path {path.id}: does not start at origin {path.origin}")
    if links[-1].head != path.destination:
        violations.append(f"path {path.id}: does not end at destination {path.destination}")
    violations += [f"path {path.id}: links {a.id} and {b.id} are not adjacent"
                   for a, b in zip(links, links[1:]) if a.head != b.tail]
    return violations
