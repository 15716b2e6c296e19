"""Rank oracles over capacity networks, non-modularity analysis, topology
generators, and the token-matroid construction.

The central object is a polymatroid rank function f: 2^E -> R>=0 over an
agent ground set E = {0..n-1}: f(S) is the maximum joint service rate any
subset S of agents can obtain through the capacity network. Any network
can be evaluated four interchangeable ways, cross-checked against each
other in the test suite: an explicit table, tree min-cut, series-parallel
composition and generic max-flow with node capacities. Two rank functions
have closed forms instead: the fully entangled witness, and the two-level
`LaminarOracle`, whose `settle` is also the one engine that prices its
groups' greedy allocations and threshold payments, a row per group in one
array pass. `SubstituteCloneOracle` adds a substitute copy of one agent's
position to any of them.

The max-flow evaluator and the token matroid share one array max-flow,
`_max_flow`: Edmonds & Karp shortest augmenting paths over flat arc lists,
arc e paired with its reverse e ^ 1, with no graph object. Each oracle builds
its network once; a rank evaluation copies the residual capacities, opens
the source arcs of its subset and augments. With integer capacities every
push and every sum is an exact float. The structure checks of `CapacityDag`
are plain graph passes too, so numpy is the only runtime dependency.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    Level2RegimeError,
    MatroidBoundaryError,
    StructureError,
)

RANK_TOL = 1e-9  # float comparison tolerance for rank values
MEMO_MAX_AGENTS = 32  # bitmask memoisation only below this ground-set size


def agent_id(a, n):
    """`a` as an exact Python int in range(n), else DomainError. The hot
    loop of `RankOracle.rank` inlines this check."""
    try:
        i = operator.index(a)
    except TypeError:
        i = -1
    if not 0 <= i < n:
        raise DomainError(f"agent id {a!r} is not in the ground set")
    return i


# --------------------------------------------------------------------------
# Capacity DAG
# --------------------------------------------------------------------------

TOPOLOGY_CLASSES = ("single_edge", "series", "parallel", "tree", "sp", "general")


@dataclass
class CapacityDag:
    """Service-dependency DAG with node capacities.

    Flow originates at per-agent leaf nodes and drains to `sink`; every node
    constrains the throughput crossing it to `node_capacity[node]`.
    """

    nodes: list
    node_capacity: dict
    edges: list
    leaves: dict  # agent id -> leaf node id
    sink: str
    topology_class: str
    sp_tree: object = None  # series-parallel grammar when the class is sp

    def __post_init__(self):
        if self.topology_class not in TOPOLOGY_CLASSES:
            raise ConfigError(f"unknown topology class {self.topology_class!r}")
        if any(self.node_capacity.get(v, 0.0) < 0 for v in self.nodes):
            raise ConfigError("node capacities must be nonnegative")
        succ = {v: [] for v in self.nodes}
        for u, v in self.edges:
            succ.setdefault(u, []).append(v)
            succ.setdefault(v, [])
        # Kahn's order: a node enters once all its in-edges are spent, so a
        # cycle leaves nodes out
        indegree = dict.fromkeys(succ, 0)
        for _, v in self.edges:
            indegree[v] += 1
        order = [v for v, d in indegree.items() if d == 0]
        for u in order:
            for v in succ[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    order.append(v)
        if len(order) < len(succ):
            raise StructureError("capacity graph contains a cycle")
        # in reverse topological order each node's successors are settled
        reaches = set()
        for v in reversed(order):
            if v == self.sink or any(w in reaches for w in succ[v]):
                reaches.add(v)
        for agent, leaf in self.leaves.items():
            if leaf != self.sink and leaf not in reaches:
                raise StructureError(f"leaf of agent {agent} cannot reach the sink")
        if self.topology_class == "tree":
            self._check_tree(succ)
        if self.topology_class == "sp" and self.sp_tree is None:
            if not _reduces_series_parallel(self):
                raise StructureError("graph fails series-parallel recognition")

    def _check_tree(self, succ):
        edges = set(map(tuple, self.edges))
        # union-find over every node an edge or the node list names
        root = {v: v for v in succ}

        def find(v):
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        parts = len(root)
        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                root[ru] = rv
                parts -= 1
        if len(edges) != len(self.nodes) - 1 or parts != 1:
            raise StructureError("tree topology must be a connected tree")
        out_degree = Counter(u for u, _ in edges)
        for v in self.nodes:
            if v != self.sink and out_degree[v] != 1:
                raise StructureError("tree nodes must have a unique edge toward the sink")

    @property
    def n_agents(self):
        return len(self.leaves)


def _reduces_series_parallel(dag):
    # Classic two-terminal reduction on the undirected multigraph (each
    # node's neighbours counted with multiplicity): join all leaves to a
    # virtual source, then alternately merge parallel edges and contract
    # degree-2 internal vertices. SP iff it collapses to one source-sink edge.
    adj = {v: Counter() for v in dag.nodes}

    def join(u, v):
        adj.setdefault(u, Counter())[v] += 1
        adj.setdefault(v, Counter())[u] += 1

    for u, v in dag.edges:
        join(u, v)
    src = "__src__"
    for leaf in set(dag.leaves.values()):
        join(src, leaf)
    changed = True
    while changed:
        changed = False
        for nbrs in adj.values():
            for w, count in nbrs.items():
                if count > 1:
                    nbrs[w] = 1
                    changed = True
        for v in list(adj):
            if v in (src, dag.sink) or sum(adj[v].values()) != 2:
                continue
            nbrs = [w for w in adj[v] if w != v]
            if len(nbrs) == 2:
                for w in nbrs:
                    del adj[w][v]
                del adj[v]
                join(*nbrs)
                changed = True
    return len(adj) == 2 and adj.get(src, Counter())[dag.sink] == 1


# --------------------------------------------------------------------------
# Array max-flow
# --------------------------------------------------------------------------


def _add_arc(adj, head, cap, u, v, c):
    """Append the arc u -> v of capacity c under an even id e, and its
    reverse v -> u, of capacity 0, under e ^ 1."""
    adj[u].append(len(head))
    head.append(v)
    cap.append(c)
    adj[v].append(len(head))
    head.append(u)
    cap.append(0.0)


def _max_flow(adj, head, residual, source, sink):
    """Value of a maximum source-sink flow (Edmonds & Karp, JACM 1972).

    `adj[u]` lists the arcs leaving node u, arc e runs to `head[e]`, and
    `residual[e]` is its residual capacity, consumed in place. Each round
    finds a shortest residual path by BFS and pushes its bottleneck, which
    leaves that arc at exactly zero. A path of infinite arcs only would
    push infinity; callers rule such paths out before they call.
    """
    flow = 0.0
    n = len(adj)
    while True:
        via = [None] * n  # the arc each reached node was entered by
        via[source] = -1
        queue = [source]
        for u in queue:
            for e in adj[u]:
                v = head[e]
                if via[v] is None and residual[e] > 0.0:
                    via[v] = e
                    queue.append(v)
            if via[sink] is not None:
                break
        else:
            return flow
        path = []
        v = sink
        while v != source:
            e = via[v]
            path.append(e)
            v = head[e ^ 1]
        push = min(residual[e] for e in path)
        for e in path:
            residual[e] -= push
            residual[e ^ 1] += push
        flow += push


# --------------------------------------------------------------------------
# Series-parallel grammar (agents sit on leaf edges; links are pure capacity)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SPLeaf:
    agent: int
    cap: float


@dataclass(frozen=True)
class SPSeries:
    child: object
    link_cap: float


@dataclass(frozen=True)
class SPParallel:
    children: tuple


def sp_rank(node, subset):
    """series = min with the link, parallel = sum over branches."""
    if isinstance(node, SPLeaf):
        return node.cap if node.agent in subset else 0.0
    if isinstance(node, SPSeries):
        return min(sp_rank(node.child, subset), node.link_cap)
    if isinstance(node, SPParallel):
        return sum(sp_rank(c, subset) for c in node.children)
    raise StructureError(f"not an SP grammar node: {node!r}")


def _sp_describe(node):
    if isinstance(node, SPLeaf):
        return ["leaf", node.agent, node.cap]
    if isinstance(node, SPSeries):
        return ["series", _sp_describe(node.child), node.link_cap]
    return ["parallel", [_sp_describe(c) for c in node.children]]


def sp_to_dag(root):
    """Materialise the SP grammar as an explicit CapacityDag (for cross-checks)."""
    nodes, caps, edges, leaves = [], {}, [], {}
    counter = itertools.count()

    def fresh(prefix, cap):
        name = f"{prefix}{next(counter)}"
        nodes.append(name)
        caps[name] = cap
        return name

    def build(node):
        # returns the output node of the subnetwork
        if isinstance(node, SPLeaf):
            leaf = fresh("leaf", node.cap)
            leaves[node.agent] = leaf
            return leaf
        if isinstance(node, SPSeries):
            out = build(node.child)
            link = fresh("link", node.link_cap)
            edges.append((out, link))
            return link
        join = fresh("join", math.inf)
        for c in node.children:
            edges.append((build(c), join))
        return join

    top = build(root)
    sink = fresh("sink", math.inf)
    edges.append((top, sink))
    return CapacityDag(nodes, caps, edges, leaves, sink, "sp", sp_tree=root)


def random_sp_instance(n_agents, seed):
    """Random series-parallel network with one leaf edge per agent.

    Integer capacities in 1..4 keep the max-flow cross-check exact.
    """
    rng = np.random.default_rng(seed)

    def build(agents):
        if len(agents) == 1:
            node = SPLeaf(agents[0], int(rng.integers(1, 5)))
        else:
            cut = int(rng.integers(1, len(agents)))
            parts = [build(agents[:cut]), build(agents[cut:])]
            node = SPParallel(tuple(parts))
        if rng.random() < 0.5:
            node = SPSeries(node, int(rng.integers(1, 5)))
        return node

    root = build(list(range(n_agents)))
    return sp_to_dag(root)


# --------------------------------------------------------------------------
# Rank oracles
# --------------------------------------------------------------------------


class RankOracle:
    """Base class: memoised, immutable rank function over agents 0..n-1.

    Rank memoisation is a plain dict keyed by subset bitmask; in CPython the
    GIL makes concurrent reads safe, and oracles are never mutated after
    construction.
    """

    evaluator = None

    def __init__(self, n_agents):
        # a plain int attribute: rank() reads it on every call
        self.n = operator.index(n_agents)
        if self.n < 1:
            raise ConfigError("ground set must contain at least one agent")
        self._memo = {} if self.n <= MEMO_MAX_AGENTS else None

    def rank(self, subset):
        if not isinstance(subset, (frozenset, set, list, tuple)):
            subset = tuple(subset)  # a generator can be read only once
        # one pass checks every id before any deduplication (a frozenset
        # would fold 1.0 into 1) and builds the memo's bitmask key;
        # operator.index maps numpy ints to exact Python ints, where a raw
        # `1 << np.int64(100)` overflows onto a valid key
        n = self.n
        key = 0
        for a in subset:
            try:
                i = operator.index(a)
            except TypeError:
                i = -1
            if not 0 <= i < n:
                raise DomainError(f"agent id {a!r} is not in the ground set")
            key |= 1 << i
        memo = self._memo
        if memo is None:
            return self._rank(frozenset(subset))
        val = memo.get(key)
        if val is None:
            val = self._rank(frozenset(subset))
            memo[key] = val
        return val

    def _rank(self, subset):
        raise NotImplementedError

    @cached_property
    def singleton_ranks(self):
        """(f({0}), ..., f({n - 1})): every agent's rank alone, ranked once
        per oracle (the flat demands of `mechanisms.clinching_auction`)."""
        return tuple(self.rank({i}) for i in range(self.n))

    #: whether `rank_without_each_many` costs less than a call per set
    batches_drops = False

    def rank_without_each(self, members):
        """(f(S), [f(S - {m}) for m in members]) for S = members, a list of
        distinct agent ids in ascending order; a bad id raises DomainError
        as `rank` does."""
        return self._rank_without_each_many([self._drop_ids(members)])[0]

    def rank_without_each_many(self, sets):
        """[rank_without_each(s) for s in sets], for any lists of ids that
        `rank_without_each` takes, nested or not. Every set is checked
        before any is ranked. This is the one drop-one pass an evaluator
        answers: the default ranks each drop, and evaluators with an array
        form of the values override `_rank_without_each_many` and set
        `batches_drops`."""
        return self._rank_without_each_many([self._drop_ids(s) for s in sets])

    def _drop_ids(self, members):
        given = list(members)
        # plain ascending ints in range pass at once; anything else takes
        # the loop, which names the first bad id
        if set(map(type, given)) <= {int} and all(map(operator.lt, given, given[1:])):
            if not given or (given[0] >= 0 and given[-1] < self.n):
                return given
        ids = []
        for a in given:
            i = agent_id(a, self.n)
            if ids and i <= ids[-1]:
                raise DomainError(f"members must ascend without repeats: {a!r} after {ids[-1]}")
            ids.append(i)
        return ids

    def _rank_without_each_many(self, sets):
        # generic default: one rank per set and per drop
        rank = self.rank
        return [
            (rank(ids), [rank(ids[:k] + ids[k + 1 :]) for k in range(len(ids))])
            for ids in sets
        ]

    def rank_prefixes(self, order):
        """[f(order[:1]), ..., f(order)] for `order`, distinct agent ids in
        any order; a bad or repeated id raises DomainError. The default
        ranks one growing set, so every prefix meets the memo; evaluators
        with a running form override this."""
        taken, ranks = set(), []
        for a in order:
            # `rank` checks a plain int; a repeat leaves the set as it was
            taken.add(a if type(a) is int else agent_id(a, self.n))
            ranks.append(self.rank(taken))
        if len(taken) < len(ranks):
            raise DomainError("agent ids repeat in the order")
        return ranks

    def threshold_outcome(self, bids, clone_of=None, clone_level=0.0):
        """(allocation, payments) over every id in closed form, equal to
        `mechanisms.vcg_outcome`'s generic route on the checked `bids`, or
        None: the default has no closed form. `clone_of` and `clone_level`
        add a substitute clone of that agent bidding that level under id n,
        as `SubstituteCloneOracle` numbers it; `bids` then holds n + 1
        bids, the clone's last."""
        return None

    def describe(self):
        """Canonical JSON-able description used for commitment digests."""
        raise NotImplementedError

    def digest(self):
        blob = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class TableOracle(RankOracle):
    """Explicit value table over all subsets."""

    evaluator = "explicit_table"

    def __init__(self, n_agents, table):
        super().__init__(n_agents)
        n = self.n
        agents = range(n)  # a membership test that builds nothing
        self._table = {}
        for key, val in table.items():
            subset = frozenset(key)
            if not all(a in agents for a in subset):
                raise ConfigError(f"table key {key!r} names an agent outside 0..{n - 1}")
            self._table[subset] = float(val)
        # every key is now one of the 2^n subsets, so the table is short when
        # its size fits in n bits; the first absent one in size-then-lex
        # order lies within len(table) + 1 steps, among ids 0..len(table)
        size = len(self._table)
        if size.bit_length() <= n:
            pool = range(min(n, size + 1))
            subsets = (s for r in range(n + 1) for s in itertools.combinations(pool, r))
            first = next(s for s in subsets if frozenset(s) not in self._table)
            missing = 2**n - size if n <= 64 else f"2**{n} - {size}"
            raise ConfigError(f"table is missing {missing} subsets, e.g. {first}")

    def _rank(self, subset):
        return self._table[subset]

    def describe(self):
        items = sorted((sorted(k), v) for k, v in self._table.items())
        return {"evaluator": self.evaluator, "table": items}


class TreeCutOracle(RankOracle):
    """Recursive min-cut on a capacity tree rooted at the sink."""

    evaluator = "tree_cut"

    def __init__(self, dag):
        super().__init__(dag.n_agents)
        self.dag = dag
        self._children = {v: [] for v in dag.nodes}
        for u, v in dag.edges:
            self._children[v].append(u)
        self._leaf_owner = {}
        for agent, leaf in dag.leaves.items():
            if leaf in self._leaf_owner:
                raise StructureError("tree evaluator needs one agent per leaf node")
            self._leaf_owner[leaf] = agent

    def _rank(self, subset):
        cap = self.dag.node_capacity

        def value(v):
            kids = self._children[v]
            if not kids:
                owner = self._leaf_owner.get(v)
                return cap[v] if owner in subset else 0.0
            return min(cap[v], sum(value(c) for c in kids))

        return value(self.dag.sink)

    def describe(self):
        return {"evaluator": self.evaluator, "dag": dag_to_obj(self.dag)}


class SPOracle(RankOracle):
    evaluator = "sp_compositional"

    def __init__(self, dag):
        if dag.sp_tree is None:
            raise ConfigError("SP evaluator needs the series-parallel grammar")
        super().__init__(dag.n_agents)
        self.dag = dag
        self.root = dag.sp_tree

    def _rank(self, subset):
        return sp_rank(self.root, subset)

    def describe(self):
        return {"evaluator": self.evaluator, "sp": _sp_describe(self.root)}


class MaxflowOracle(RankOracle):
    """Generic max-flow evaluator on the node-split network.

    Node v becomes an arc v_in -> v_out carrying its capacity, each DAG edge
    an uncapacitated arc u_out -> v_in, and each agent a source arc into its
    leaf, closed until `_rank` opens it for the agents of the subset. The
    network is built once, from the capacities the DAG holds at
    construction.
    """

    evaluator = "maxflow"

    def __init__(self, dag):
        super().__init__(dag.n_agents)
        self.dag = dag
        # node v splits into v_in = 2k and v_out = 2k + 1; the source is last
        ends = (v for edge in dag.edges for v in edge)
        names = dict.fromkeys((*dag.nodes, *ends, *dag.leaves.values(), dag.sink))
        k = {v: i for i, v in enumerate(names)}
        self._source = 2 * len(k)
        self._target = 2 * k[dag.sink] + 1
        self._adj = [[] for _ in range(self._source + 1)]
        self._head, self._capacity = [], []
        arcs = (self._adj, self._head, self._capacity)
        for v in dict.fromkeys(dag.nodes):
            _add_arc(*arcs, 2 * k[v], 2 * k[v] + 1, dag.node_capacity[v])
        for u, v in dag.edges:
            _add_arc(*arcs, 2 * k[u] + 1, 2 * k[v], math.inf)
        self._source_arc = []
        for a in range(self.n):
            self._source_arc.append(len(self._head))
            _add_arc(*arcs, self._source, 2 * k[dag.leaves[a]], 0.0)
        # a leaf that reaches the sink over infinite arcs alone would carry
        # unbounded flow: search back from the sink along those arcs (an
        # odd arc is the reverse of one entering its tail)
        reached = {self._target}
        queue = [self._target]
        for x in queue:
            for e in self._adj[x]:
                u = self._head[e]
                if e & 1 and u not in reached and self._capacity[e ^ 1] == math.inf:
                    reached.add(u)
                    queue.append(u)
        for a in range(self.n):
            if 2 * k[dag.leaves[a]] in reached:
                raise StructureError(
                    f"agent {a} reaches the sink through infinite capacities "
                    "only: its rank is unbounded"
                )

    def _rank(self, subset):
        if not subset:
            return 0.0
        residual = self._capacity.copy()
        for agent in subset:
            residual[self._source_arc[agent]] = math.inf
        return _max_flow(self._adj, self._head, residual, self._source, self._target)

    def describe(self):
        return {"evaluator": self.evaluator, "dag": dag_to_obj(self.dag)}


class LaminarOracle(RankOracle):
    """Two-level tree rank in closed form.

    f(S) = min(root_cap, sum_g min(cap_g, sum_{i in S, group(i)=g} demand_i));
    this is the tree-cut computation on a leaves->groups->root tree, kept in
    closed form because the simulator evaluates it millions of times.
    """

    evaluator = "tree_cut"
    batches_drops = True

    def __init__(self, demands, group_of, group_caps, root_cap=math.inf):
        # checked once here so that `_rank` can trust its arrays: numpy
        # would broadcast a short cap list and index past a short group list
        try:
            demands = np.asarray(demands, dtype=float)
            group_caps = np.asarray(group_caps, dtype=float)
            group_of = np.asarray(group_of)
            root_cap = float(root_cap)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"laminar oracle inputs must be numbers: {exc}") from exc
        if demands.ndim != 1 or group_caps.ndim != 1 or group_of.shape != demands.shape:
            raise ConfigError(
                "demands and group_of must be flat lists of one length, "
                "group_caps a flat list"
            )
        super().__init__(len(demands))
        if group_of.dtype.kind not in "iu":
            raise ConfigError(f"group ids must be integers, got {group_of.tolist()}")
        if group_of.min() < 0 or group_of.max() >= len(group_caps):
            raise ConfigError(f"group ids must lie in [0, {len(group_caps)})")
        amounts = np.concatenate((demands, group_caps))
        if not (np.isfinite(amounts).all() and (amounts >= 0).all()) or not root_cap >= 0:
            raise ConfigError(
                "demands and group caps must be finite and nonnegative, "
                "root_cap nonnegative"
            )
        self.demands = demands
        self.group_of = group_of.astype(int, copy=False)
        self.group_caps = group_caps
        self.root_cap = root_cap
        # plain-list copies for the group-load pass and the group sweep,
        # which touch few entries
        self._demand_list = self.demands.tolist()
        self._group_list = self.group_of.tolist()
        self._cap_list = self.group_caps.tolist()
        members = [[] for _ in self._cap_list]
        for i, g in enumerate(self._group_list):
            members[g].append(i)
        #: each group's agents in ascending id order
        self.group_members = tuple(map(tuple, members))
        # when the whole ground set fits under the root, the root never
        # binds and f is the direct sum of its group terms
        self._slack_root = sum(self._loads(range(self.n))) <= root_cap

    def _loads(self, ids):
        """The part of each group's demand from `ids`, added in their
        order, that its cap serves."""
        demand, group = self._demand_list, self._group_list
        loads = [0.0] * len(self._cap_list)
        for i in ids:
            loads[group[i]] += demand[i]
        return [min(c, x) for c, x in zip(self._cap_list, loads)]

    def _rank(self, subset):
        return min(self.root_cap, sum(self._loads(subset)))

    @cached_property
    def _integral(self):
        # integer loads below 2**53 add up exactly in any order
        amounts = self._demand_list + self._cap_list
        return all(map(float.is_integer, amounts)) and sum(self._demand_list) <= 2**53

    def _rank_without_each_many(self, sets):
        # one array pass over (set x member): a bincount gives each set's
        # group loads, and dropping m changes only its group's term, each
        # min written as its `x if x < cap else cap`. On integer loads
        # every step is exact, so the pass is bitwise `_rank`; on other
        # data it can differ from `_rank` in the last bits
        sizes = list(map(len, sets))
        flat = np.fromiter(itertools.chain.from_iterable(sets), int, sum(sizes))
        row = np.repeat(np.arange(len(sets)), sizes)
        caps, groups = self.group_caps, len(self._cap_list)
        group = self.group_of[flat]
        cell = row * groups + group
        demand = self.demands[flat]
        loads = np.bincount(cell, demand, len(sets) * groups).reshape(len(sets), groups)
        served = np.where(loads < caps, loads, caps)
        inner = served.sum(axis=1)
        root = self.root_cap
        full = np.where(inner < root, inner, root).tolist()
        rest, cap = loads.ravel()[cell] - demand, caps[group]
        drops = inner[row] - served.ravel()[cell] + np.where(rest < cap, rest, cap)
        drops = np.where(drops < root, drops, root).tolist()
        ends = itertools.accumulate(sizes)
        return [(f, drops[end - k : end]) for f, k, end in zip(full, sizes, ends)]

    def rank_prefixes(self, order):
        # one running group-load pass: adding i changes only its group's
        # term, and only while that group is under its cap. On integer
        # loads every step is exact, so the pass is bitwise `_rank`; other
        # data ranks each prefix, as the default does
        if not self._integral:
            return super().rank_prefixes(order)
        n, root = self.n, self.root_cap
        demand, group, caps = self._demand_list, self._group_list, self._cap_list
        loads = [0.0] * len(caps)
        inner, ranks, seen = 0.0, [], set()
        for a in order:
            # a plain int in range skips `agent_id`'s call
            i = a if type(a) is int and 0 <= a < n else agent_id(a, n)
            if i in seen:
                raise DomainError(f"agent id {a!r} repeats in the order")
            seen.add(i)
            g = group[i]
            old, cap = loads[g], caps[g]
            new = loads[g] = old + demand[i]
            if old < cap:
                inner += (new if new < cap else cap) - old
            ranks.append(inner if inner < root else root)
        return ranks

    def threshold_outcome(self, bids, clone_of=None, clone_level=0.0):
        """Settle each group alone, one `settle` row per group, when the
        root is slack; None when it can bind. A clone of member `clone_of`
        bidding `clone_level` is priced in its source's row, under id n."""
        if not self._slack_root:
            return None
        groups = len(self.group_members)
        sources, levels = np.full(groups, -1), np.zeros(groups)
        if clone_of is not None:
            home = self._group_list[clone_of]
            sources[home], levels[home] = clone_of, clone_level
        rows = self.settle(bids[: self.n], np.arange(groups), sources, levels)
        return self.group_outcome(*rows, clone_of)

    def group_outcome(self, alloc, pay, clone_of=None):
        """(allocation, payments) dicts over every id, read off `settle`'s
        (alloc, pay) when their first rows settle every group in group
        order, as `threshold_outcome`'s call does; later rows are ignored.
        A clone of member `clone_of` in its source's row is read under id
        n. None when the root can bind: the rows are then each group on its
        own cap, not the market's outcome."""
        if not self._slack_root:
            return None
        ids, _, spot = self._slots
        size, groups = ids.shape
        if clone_of is not None:
            spot = np.append(spot, self._group_list[clone_of] * size + size - 1)
        rows = np.stack((alloc[:groups], pay[:groups])).reshape(2, -1)
        alloc, pay = rows[:, spot].tolist()
        return dict(enumerate(alloc)), dict(enumerate(pay))

    @cached_property
    def _slots(self):
        """(ids, slot, spot) for `settle` and `group_outcome`, built once
        per oracle and read-only. ids is an (S, groups) array, S = M + 1
        for the largest group M: column g holds group g's members in id
        order, padded with id n, and its last row is the clone's slot, id
        -1. slot[a] is agent a's row, and slot[-1] the clone's. spot[a] =
        g * S + slot[a] for a's group g is a's place in the (group, slot)
        rows flattened."""
        n, size = self.n, max(map(len, self.group_members)) + 1
        ids = np.array([[*m, *[n] * (size - 1 - len(m)), -1] for m in self.group_members]).T
        slot = [size - 1] * (n + 1)
        spot = [0] * n
        for g, members in enumerate(self.group_members):
            for k, a in enumerate(members):
                slot[a] = k
                spot[a] = g * size + k
        layout = ids, np.array(slot), np.array(spot)
        for array in layout:
            array.flags.writeable = False
        return layout

    @property
    def member_ids(self):
        """Each group's member ids in id order, padded with id n to the
        largest group: the rows `settle` lays a group's members in."""
        return self._slots[0][:-1].T

    def settle(self, bids, groups, sources, levels, demands=None):
        """Greedy allocation and threshold payments of groups settled
        alone, W rows in one array pass.

        Row w settles group `groups[w]` (an int in [0, groups), an index
        into `group_members`) on its own cap under bid row w: `bids` is
        one (n,) vector shared by every row or a (W, n) matrix, finite and
        nonnegative. `demands` is the same for the demands a row settles
        on, finite and nonnegative too, and defaults to the oracle's own.
        With `sources[w]` a member of that group (-1 for none) the row
        adds a substitute clone of it bidding `levels[w]`, at any level;
        every level must be finite and nonnegative, and a row without a
        clone leaves its level unused. Any other input raises
        `DomainError`. A row's arithmetic reads only its own bids, demands
        and group, and never depends on the other rows of the call, so
        rows of oracles that share groups and caps, each with its own
        demands, settle in one call bitwise as each would alone on its own
        oracle. With a slack root a row is the group's share of the
        market's outcome (the closed form behind `threshold_outcome`); with a
        binding root it is the group standing on its own cap. Returns
        (alloc, pay), two (W, M + 1) float arrays: row w holds its group's
        members in `group_members` order, zero-padded to the largest group
        M, then the clone. Only slots served more than RANK_TOL are
        priced; the rest pay zero.

        Each slot bids for one footprint: a member at its bid, but the
        clone and its source share the source's (perfect substitutes). The
        higher of the two holds it, the source on a tie, and the other is
        zero wherever the holder outbids it; a clone tied with another
        member loses, as id n does. A footprint is served its demand
        capped by the cap less the footprint demand ahead of it (higher,
        or tied in an earlier slot): the greedy fill's residual. Below its
        bid a served slot's curve is x_a(z) = max(0, min(d_a, cap - (T(z)
        - d_a))), T(z) the footprint demand strictly above z, and
        p_a = b_a x_a - integral_0^b_a x_a(z) dz (Archer & Tardos).

        The footprint demand ahead of a slot, and T(z), are running sums
        of the loads in greedy order (bid high to low, a tie to the
        earlier slot), added one footprint at a time from the highest, as
        the greedy fill adds them.

        Exactness invariant: with integer-valued demands and caps (the
        simulator's unit sizes times arrival counts, integer pod caps)
        every load is an exact float in any summation order, and so is
        the curve, computed as max(0, d_a + min(0, cap - T(z))). The
        breakpoints are 0.0, every member bid and the clone level,
        sorted; T is read at each segment's midpoint, and repeated
        breakpoints only add zero-width segments, whose +0.0 areas leave
        every partial sum as it is. The areas are added one segment at a
        time from the lowest, as `np.cumsum` along the segment axis would
        add them, so each payment is the plain left-to-right sum of its
        segment areas: what the generic route
        (`mechanisms.archer_tardos_payment`) integrates, bitwise where
        Python's `sum` adds floats left to right, as CPython 3.11 does.
        """
        bids = np.asarray(bids, dtype=float)
        groups = np.asarray(groups)
        if not groups.size:  # an empty list reads as floats
            groups = groups.astype(int)
        sources = np.asarray(sources, dtype=int)
        levels = np.asarray(levels, dtype=float)
        demands = self.demands if demands is None else np.asarray(demands, dtype=float)
        n, rows = self.n, len(groups)
        ids, slot, _ = self._slots
        if not (
            bids.shape in ((n,), (rows, n)) and demands.shape in ((n,), (rows, n))
            and groups.shape == sources.shape == levels.shape == (rows,)
        ):
            raise DomainError(
                "settle needs a group, a source and a level per bid row, and "
                "bids and demands as one row or a row each"
            )
        if groups.dtype.kind not in "iu" or not (
            0 <= groups.min(initial=0) and groups.max(initial=0) < ids.shape[1]
        ):
            raise DomainError(f"group ids must be ints in [0, {ids.shape[1]})")
        # a NaN fails both comparisons
        for x in (bids, demands):
            if not (0.0 <= x.min(initial=0.0) and x.max(initial=0.0) < math.inf):
                raise DomainError("bids and demands must be finite and nonnegative")
        # (slot, row) arrays, the long row axis innermost so that every
        # array op makes few, long inner loops: np.take keeps that order,
        # where ids[:, groups] would lay rows outermost and make every
        # mixed op strided
        row = np.arange(rows)
        member = ids.take(groups, axis=1)
        # a source's slot holds its id only inside its row's group; -1
        # names the clone slot, and ids out of range wrap onto a slot that
        # holds another id
        at = slot.take(sources, mode="wrap")
        if not (
            (member[at, row] == sources).all()
            and 0.0 <= levels.min(initial=0.0)
            and levels.max(initial=0.0) < math.inf
        ):
            raise DomainError(
                "each clone needs a source in its row's group and a finite "
                "nonnegative level"
            )
        # the clone slot reads its source's demand, and padding id n, or
        # id n standing for no clone, reads 0.0
        member[-1] = np.where(sources >= 0, sources, n)
        col = np.minimum(member, n - 1)
        bid, demand = (
            np.where(member < n, x[col] if x.ndim == 1 else x[row, col], 0.0)
            for x in (bids, demands)
        )
        level = np.where(sources >= 0, levels, 0.0)
        bid[-1] = level
        cap = self.group_caps[groups]
        # a footprint's load is its demand while it bids; the pair's goes to
        # the source on a tie, and each of the two is zero below the
        # other's level, its floor
        load = np.where(bid > 0, demand, 0.0)
        source_bid = bid[at, row]
        held = source_bid >= level
        load[np.where(held, len(ids) - 1, at), row] = 0.0
        floor = np.zeros_like(bid)
        floor[at, row] = level
        floor[-1] = source_bid
        # greedy order: bid high to low, a tie to the earlier slot. above[q]
        # is the load of the first q footprints, added in that order, so
        # the load ahead of a slot, and T(z), are entries of it
        order = np.argsort(-bid, axis=0, kind="stable")
        above = np.zeros((len(ids) + 1, rows))
        np.cumsum(load[order, row], axis=0, out=above[1:])
        place = np.empty_like(order)
        place[order, row] = np.arange(len(ids))[:, None]
        residual = np.maximum(0.0, cap - above[place, row])
        alloc = np.minimum(load, residual)
        # segment k spans zs[k]..zs[k+1]; T at its midpoint is constant on it
        zs = np.sort(np.vstack((np.zeros(rows), bid)), axis=0)
        lo, hi = zs[:-1], zs[1:]
        mid = (lo + hi) / 2.0
        t = above[(bid > mid[:, None]).sum(axis=1), row]
        # a slot's area on each segment: its curve from its floor up to its
        # bid, zero width elsewhere. The areas are added from the lowest
        # segment, one (slot, row) array at a time
        inside = (hi[:, None] <= bid) & (mid[:, None] >= floor)
        area = None
        for width, within, short in zip(hi - lo, inside, np.minimum(0.0, cap - t)):
            segment = demand + short
            np.maximum(0.0, segment, out=segment)
            segment *= width * within
            area = segment if area is None else area + segment
        pay = np.where(alloc > RANK_TOL, bid * alloc - area, 0.0)
        return alloc.T, pay.T

    def describe(self):
        return {
            "evaluator": self.evaluator,
            "laminar": {
                "demands": self.demands.tolist(),
                "group_of": self.group_of.tolist(),
                "group_caps": self.group_caps.tolist(),
                "root_cap": self.root_cap,
            },
        }

    def to_dag(self):
        nodes, caps, edges, leaves = [], {}, [], {}
        for g, c in enumerate(self.group_caps):
            nodes.append(f"g{g}")
            caps[f"g{g}"] = float(c)
        nodes.append("root")
        caps["root"] = self.root_cap
        for i in range(self.n):
            leaf = f"leaf{i}"
            nodes.append(leaf)
            caps[leaf] = float(self.demands[i])
            leaves[i] = leaf
            edges.append((leaf, f"g{self.group_of[i]}"))
        for g in range(len(self.group_caps)):
            edges.append((f"g{g}", "root"))
        return CapacityDag(nodes, caps, edges, leaves, "root", "tree")


class SubstituteCloneOracle(RankOracle):
    """Extend the ground set with a substitute copy of one agent's position.

    The clone occupies the same capacity slot as `position_agent`: with the
    clone in S the rank is evaluated as if position_agent were present, so
    clone and original together add nothing beyond the original alone. This
    is the phantom-participant model: one more bidder contesting an existing
    slot, never new capacity.
    """

    def __init__(self, base, position_agent):
        self.base = base
        self.position_agent = agent_id(position_agent, base.n)
        self.clone_id = base.n
        self.evaluator = base.evaluator
        self.batches_drops = base.batches_drops
        super().__init__(base.n + 1)

    def _rank(self, subset):
        real = set(a for a in subset if a != self.clone_id)
        if self.clone_id in subset:
            real.add(self.position_agent)
        return self.base.rank(real)

    @cached_property
    def singleton_ranks(self):
        # the base's, then the clone's: its source's rank alone
        base = self.base.singleton_ranks
        return (*base, base[self.position_agent])

    def _on_base(self, ids):
        """(base ids, back): the base's set with the same drop-one values
        as `ids`, and the map from the base's (f, drops) back to them."""
        # the clone id is the largest, so it can only be the last member
        if not ids or ids[-1] != self.clone_id:
            return ids, lambda full, drops: (full, drops)
        real, source = ids[:-1], self.position_agent
        if source in real:
            # the clone and its source stand in for each other: dropping
            # either one leaves f(S) as it is
            k = real.index(source)
            return real, lambda full, drops: (full, drops[:k] + [full] + drops[k + 1 :] + [full])
        # the clone holds its source's slot: drop the clone = drop the source
        k = bisect.bisect(real, source)
        return real[:k] + [source] + real[k:], lambda full, drops: (
            full, drops[:k] + drops[k + 1 :] + [drops[k]]
        )

    def _rank_without_each_many(self, sets):
        # every set onto its base set, then one base call
        mapped = [self._on_base(ids) for ids in sets]
        ranked = self.base._rank_without_each_many([real for real, _ in mapped])
        return [back(*pair) for (_, back), pair in zip(mapped, ranked)]

    def threshold_outcome(self, bids, clone_of=None, clone_level=0.0):
        # the base prices the clone, if it can; a second clone it cannot
        if clone_of is not None:
            return None
        return self.base.threshold_outcome(bids, self.position_agent, bids[self.clone_id])

    def describe(self):
        return {
            "evaluator": "substitute_clone",
            "position_agent": self.position_agent,
            "base": self.base.describe(),
        }


def make_oracle(dag, evaluator=None):
    """Pick the natural evaluator for a generated topology (overridable)."""
    if evaluator is None:
        if dag.sp_tree is not None:
            evaluator = "sp_compositional"
        elif dag.topology_class in ("single_edge", "series", "parallel", "tree"):
            evaluator = "tree_cut"
        else:
            evaluator = "maxflow"
    if evaluator == "tree_cut":
        return TreeCutOracle(dag)
    if evaluator == "sp_compositional":
        return SPOracle(dag)
    if evaluator == "maxflow":
        return MaxflowOracle(dag)
    raise ConfigError(f"unknown evaluator {evaluator!r}")


# --------------------------------------------------------------------------
# Non-modularity profile
# --------------------------------------------------------------------------


@dataclass
class NonModularityProfile:
    pairs: list  # (i, j, gamma_ij) with gamma_ij > 0 only
    Gamma: float
    sharing_pair_count: int


def pair_gap(oracle, i, j):
    """gamma_ij = f({i}) + f({j}) - f({i,j}) >= 0."""
    return oracle.rank({i}) + oracle.rank({j}) - oracle.rank({i, j})


def nonmodularity_profile(oracle):
    if oracle.n < 2:
        raise DomainError("non-modularity profile needs at least two agents")
    pairs = []
    for i, j in itertools.combinations(range(oracle.n), 2):
        g = pair_gap(oracle, i, j)
        if g > RANK_TOL:
            pairs.append((i, j, g))
    return NonModularityProfile(
        pairs=pairs, Gamma=sum(g for _, _, g in pairs), sharing_pair_count=len(pairs)
    )


# --------------------------------------------------------------------------
# Topology generators (the witness instances of the scaling bounds)
# --------------------------------------------------------------------------


def generate_topology(topology_class, n=None, d=None, k=None, h=None, beta=None, seed=None):
    """Build the named witness instance as a CapacityDag."""
    cls = "general" if topology_class == "entangled" else topology_class
    if cls == "single_edge":
        n = 2 if n is None else n
        if n < 2:
            raise ConfigError("single_edge needs n >= 2")
        return _chain_dag(n, depth=1, cls="single_edge")
    if cls == "series":
        n = 2 if n is None else n
        if d is None or d < 1:
            raise ConfigError("series needs chain length d >= 1")
        return _chain_dag(n, depth=d, cls="series")
    if cls == "parallel":
        if k is None or k < 2:
            raise ConfigError("parallel needs k >= 2 paths")
        n = k if n is None else n
        if n < k:
            raise ConfigError("parallel needs at least one agent per path")
        return _parallel_dag(n, k)
    if cls == "tree":
        if h is None or h < 1 or (beta or 2) < 2:
            raise ConfigError("tree needs height h >= 1 and branching beta >= 2")
        return _tree_dag(h, beta or 2)
    if cls == "sp":
        n = 2 if n is None else n
        if seed is not None:
            return random_sp_instance(n, seed)
        return _sp_chain_dag(n)
    if cls == "general":
        n = 4 if n is None else n
        if n < 2:
            raise ConfigError("entangled witness needs n >= 2")
        return _entangled_dag(n)
    raise ConfigError(f"unknown topology class {topology_class!r}")


def _chain_dag(n, depth, cls):
    # n unit-capacity agent leaves feeding a shared chain of `depth` unit nodes
    nodes, caps, edges, leaves = [], {}, [], {}
    for i in range(n):
        leaf = f"leaf{i}"
        nodes.append(leaf)
        caps[leaf] = 1.0
        leaves[i] = leaf
        edges.append((leaf, "v1"))
    for r in range(1, depth + 1):
        nodes.append(f"v{r}")
        caps[f"v{r}"] = 1.0
        if r > 1:
            edges.append((f"v{r - 1}", f"v{r}"))
    return CapacityDag(nodes, caps, edges, leaves, f"v{depth}", cls)


def _parallel_dag(n, k):
    # k disjoint unit paths; agents assigned round-robin to paths
    nodes, caps, edges, leaves = [], {}, [], {}
    nodes.append("sink")
    caps["sink"] = math.inf
    for p in range(k):
        path = f"p{p}"
        nodes.append(path)
        caps[path] = 1.0
        edges.append((path, "sink"))
    for i in range(n):
        leaf = f"leaf{i}"
        nodes.append(leaf)
        caps[leaf] = 1.0
        leaves[i] = leaf
        edges.append((leaf, f"p{i % k}"))
    return CapacityDag(nodes, caps, edges, leaves, "sink", "parallel")


def _tree_dag(h, beta):
    # complete beta-ary tree of height h, unit capacities, one agent per leaf
    nodes, caps, edges, leaves = [], {}, [], {}

    def grow(name, depth):
        nodes.append(name)
        caps[name] = 1.0
        if depth == h:
            agent = len(leaves)
            leaves[agent] = name
            return
        for b in range(beta):
            child = f"{name}.{b}"
            grow(child, depth + 1)
            edges.append((child, name))

    grow("r", 0)
    return CapacityDag(nodes, caps, edges, leaves, "r", "tree")


def _sp_chain_dag(n):
    # n unit leaves in parallel followed by a two-link unit chain
    root = SPSeries(
        SPSeries(SPParallel(tuple(SPLeaf(i, 1.0) for i in range(n))), 1.0), 1.0
    )
    return sp_to_dag(root)


def _entangled_dag(n):
    # one unit pair node per agent pair; private access links of capacity n-1
    # keep every pair contest a function of that pair's bids alone
    nodes, caps, edges, leaves = [], {}, [], {}
    nodes.append("sink")
    caps["sink"] = math.inf
    for i in range(n):
        leaf = f"leaf{i}"
        nodes.append(leaf)
        caps[leaf] = float(n - 1)
        leaves[i] = leaf
    for i, j in itertools.combinations(range(n), 2):
        pnode = f"e{i}_{j}"
        nodes.append(pnode)
        caps[pnode] = 1.0
        edges.append((f"leaf{i}", pnode))
        edges.append((f"leaf{j}", pnode))
        edges.append((pnode, "sink"))
    return CapacityDag(nodes, caps, edges, leaves, "sink", "general")


class EntangledOracle(RankOracle):
    """Closed-form rank of the fully entangled witness.

    A subset S covers every pair touching S: f(S) = C(n,2) - C(n-|S|,2),
    a function of |S| alone. Cross-checked against the max-flow evaluator
    on the explicit DAG.
    """

    evaluator = "entangled"

    def _rank(self, subset):
        return float(math.comb(self.n, 2) - math.comb(self.n - len(subset), 2))

    def describe(self):
        return {"evaluator": self.evaluator, "n_agents": self.n}


def entangled_oracle(n):
    return EntangledOracle(n)


# --------------------------------------------------------------------------
# Axiom verification
# --------------------------------------------------------------------------

EXHAUSTIVE_AXIOM_LIMIT = 12


@dataclass
class AxiomVerdict:
    ok: bool
    violations: list = field(default_factory=list)


def verify_axioms(oracle, n_samples=2000, seed=0):
    """Check f(empty)=0, monotonicity, submodularity.

    Exhaustive for n <= 12 (local exchange characterisation); random triple
    sampling beyond that. Violations come back with witness subsets.
    """
    n = oracle.n
    violations = []
    if abs(oracle.rank(())) > RANK_TOL:
        violations.append({"kind": "normalisation", "subset": (), "value": oracle.rank(())})

    def subset_of(mask):
        return frozenset(i for i in range(n) if mask >> i & 1)

    if n <= EXHAUSTIVE_AXIOM_LIMIT:
        vals = [oracle.rank(subset_of(mask)) for mask in range(1 << n)]
        for mask in range(1 << n):
            for i in range(n):
                if mask >> i & 1:
                    continue
                if vals[mask | 1 << i] < vals[mask] - RANK_TOL:
                    violations.append(
                        {"kind": "monotonicity", "subset": tuple(sorted(subset_of(mask))), "element": i}
                    )
                for j in range(i + 1, n):
                    if mask >> j & 1:
                        continue
                    lhs = vals[mask | 1 << i] + vals[mask | 1 << j]
                    rhs = vals[mask | 1 << i | 1 << j] + vals[mask]
                    if lhs < rhs - RANK_TOL:
                        violations.append(
                            {
                                "kind": "submodularity",
                                "subset": tuple(sorted(subset_of(mask))),
                                "pair": (i, j),
                            }
                        )
    else:
        rng = np.random.default_rng(seed)
        for _ in range(n_samples):
            mask = int(rng.integers(0, 1 << min(n, 62)))
            s = frozenset(i for i in range(n) if mask >> i & 1)
            i, j = rng.choice(n, size=2, replace=False)
            i, j = int(i), int(j)
            s = s - {i, j}
            fs = oracle.rank(s)
            fi = oracle.rank(s | {i})
            fj = oracle.rank(s | {j})
            fij = oracle.rank(s | {i, j})
            if fi < fs - RANK_TOL or fj < fs - RANK_TOL:
                violations.append({"kind": "monotonicity", "subset": tuple(sorted(s)), "element": i if fi < fs else j})
            if fi + fj < fij + fs - RANK_TOL:
                violations.append({"kind": "submodularity", "subset": tuple(sorted(s)), "pair": (i, j)})
    return AxiomVerdict(ok=not violations, violations=violations)


# --------------------------------------------------------------------------
# Token matroid (direct sum of partition matroids over integrator slots)
# --------------------------------------------------------------------------


class Level1Matroid:
    """Direct sum of partition matroids: c_k unit tokens per integrator.

    A set of unit-demand agents is independent iff they can be assigned to
    eligible integrators without exceeding any token budget (a system of
    distinct representatives over the token ground set).
    """

    def __init__(self, capacities, eligibility):
        caps = []
        for c in capacities:
            if isinstance(c, float) and not c.is_integer():
                raise Level2RegimeError(
                    f"capacity {c} is not an integer: divisible capacity is outside the token-matroid regime"
                )
            if c < 0:
                raise ConfigError("capacities must be nonnegative")
            caps.append(int(c))
        self.capacities = tuple(caps)
        self.eligibility = {a: frozenset(e) for a, e in eligibility.items()}
        for a, elig in self.eligibility.items():
            bad = [k for k in elig if not 0 <= k < len(caps)]
            if bad:
                raise ConfigError(f"agent {a} eligible for unknown integrator {bad[0]}")
        self.agents = tuple(sorted(self.eligibility))
        # the bipartite network source -> agent -> integrator -> sink:
        # agents are nodes 0..m-1, integrators m..m+K-1, then source and
        # sink; every source arc stays closed until `matroid_rank` opens it
        m, n_int = len(self.agents), len(caps)
        self._source, self._sink = m + n_int, m + n_int + 1
        self._adj = [[] for _ in range(m + n_int + 2)]
        self._head, self._capacity = [], []
        arcs = (self._adj, self._head, self._capacity)
        for k, c in enumerate(caps):
            _add_arc(*arcs, m + k, self._sink, float(c))
        self._source_arc = {}
        for i, a in enumerate(self.agents):
            self._source_arc[a] = len(self._head)
            _add_arc(*arcs, self._source, i, 0.0)
            for k in sorted(self.eligibility[a]):
                _add_arc(*arcs, i, m + k, 1.0)

    def matroid_rank(self, subset):
        """Max number of agents in `subset` simultaneously assignable."""
        subset = sorted(set(subset))
        for a in subset:
            if a not in self.eligibility:
                raise DomainError(f"agent {a!r} is not in the matroid ground set")
        residual = self._capacity.copy()
        for a in subset:
            residual[self._source_arc[a]] = 1.0
        return int(_max_flow(self._adj, self._head, residual, self._source, self._sink))

    def is_independent(self, subset):
        return self.matroid_rank(subset) == len(set(subset))

    def as_rank_oracle(self):
        n = len(self.agents)
        remap = {a: i for i, a in enumerate(self.agents)}
        table = {}
        for r in range(n + 1):
            for s in itertools.combinations(self.agents, r):
                table[tuple(remap[a] for a in s)] = float(self.matroid_rank(s))
        return TableOracle(n, table)

    def describe(self):
        return {
            "capacities": list(self.capacities),
            "eligibility": {str(a): sorted(e) for a, e in self.eligibility.items()},
        }


def level1_matroid(capacities, eligibility, feasibility_oracle=None):
    """Build the token matroid; optionally verify it against true feasibility.

    When `feasibility_oracle` (a RankOracle giving the real downstream
    capacity) is supplied, the direct-sum independence family is compared
    with true routability of unit demands on every subset. A mismatch means
    the encapsulation hypothesis fails (e.g. a shared downstream bottleneck):
    the partition structure admits an augmentation the network cannot carry,
    and the construction is rejected.
    """
    matroid = Level1Matroid(capacities, eligibility)
    if feasibility_oracle is not None:
        agents = matroid.agents
        if len(agents) > EXHAUSTIVE_AXIOM_LIMIT:
            raise ConfigError("feasibility verification is exhaustive; too many agents")
        for r in range(1, len(agents) + 1):
            for s in itertools.combinations(agents, r):
                claimed = matroid.is_independent(s)
                actual = feasibility_oracle.rank(set(s)) >= len(s) - RANK_TOL
                if claimed and not actual:
                    parts = " , ".join("{%s}" % a for a in s[:-1])
                    raise MatroidBoundaryError(
                        "token matroid admits an augmentation the network cannot carry: "
                        f"{parts} -/-> {set(s)} (shared downstream capacity)",
                        witness=tuple(s),
                    )
                if actual and not claimed:
                    raise MatroidBoundaryError(
                        f"network carries {set(s)} but the token matroid rejects it",
                        witness=tuple(s),
                    )
    return matroid


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def dag_to_obj(dag):
    return {
        "class": dag.topology_class,
        "nodes": [{"id": v, "cap": dag.node_capacity[v]} for v in sorted(dag.nodes)],
        "edges": sorted([list(e) for e in dag.edges]),
        "leaves": {str(a): v for a, v in sorted(dag.leaves.items())},
        "sink": dag.sink,
        "sp": _sp_describe(dag.sp_tree) if dag.sp_tree is not None else None,
    }
