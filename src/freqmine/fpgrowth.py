"""FP-Growth mining over a prefix tree held as parallel lists.

Items are ranked once, by descending frequency (label order breaks ties), and
every tree is built in that rank space: parallel parents/ranks/counts lists
plus one chain of node indices and one total per rank, with order mapping
each rank back to its item. Mining walks the ranks from the least frequent
upward. Each rank's conditional tree is projected from the shared ancestors
of its nodes: every ancestor is reached once, its count summed bottom-up
once, and the infrequent ranks dropped as the tree is built. The walk marks
ancestors in one array per tree, allocated by the tree's first projection and
reused by the rest, with only the touched entries reset after each; a tree
is therefore not safe to project from two threads at once. A projected tree
shares its parent's order. conditional_pattern_base and
build_conditional_tree remain the path-by-path reference route and give the
same trees. Output matches the levelwise miner exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .apriori import FrequentItemsets
from .dataset import ItemCatalog, ItemId, Itemset, TransactionDb, item_frequencies
from .errors import ValidationError

# Sentinel rank for the root node; never a valid rank or catalog handle.
ROOT_ITEM: ItemId = -1

# Fixed memory model, so memory proxies compare across platforms: every tree
# node is charged the same number of bytes. An accounting constant, not a
# claim about the interpreter's real allocations.
TREE_NODE_BYTES = 160


class FPTree:
    """A prefix tree held as parallel lists, in header-rank space.

    order[r] is the item of rank r. Node 0 is the root. Every node's parent
    has a smaller index, so ascending index order is top-down and descending
    order is bottom-up; the top-level tree numbers its nodes depth-first.
    chains[r] lists the nodes of rank r in ascending index order and
    totals[r] is their summed count; a rank with no nodes has an empty chain
    and a zero total. The top-level tree's paths ascend in rank, and a
    projected tree shares its parent's order and keeps its ranks, so its
    paths ascend too. build_conditional_tree ranks by its own header and
    keeps each path's order.

    walk is project's scratch array, one entry per node: None until the
    first projection, then kept with every entry but the root's at -1
    between projections.
    """

    __slots__ = ("catalog", "order", "parents", "ranks", "counts", "chains", "totals", "walk")

    def __init__(self, catalog: ItemCatalog, order: list[ItemId], totals: list[int]) -> None:
        self.catalog = catalog
        self.order = order
        self.parents = [0]
        self.ranks = [ROOT_ITEM]
        self.counts = [0]
        self.chains: list[list[int]] = [[] for _ in totals]
        self.totals = totals
        self.walk: list[int] | None = None

    @property
    def node_count(self) -> int:
        return len(self.parents) - 1

    # perfbench/trace_cli.py times this call by name as fpgrowth.rank_copy;
    # it goes when the program reports its own trace (ROADMAP item 3).
    @classmethod
    def from_fptree(cls, tree: FPTree, header: Mapping[ItemId, int]) -> FPTree:
        return tree

    def project(self, rank: int, min_support: int) -> FPTree:
        """Conditional tree of one rank, built from its nodes' shared ancestors.

        Each chain node's parent collects the node's count, and the walk up
        from it stops at the first ancestor already reached, so every
        ancestor is visited once. One bottom-up pass then sums the counts
        and the conditional totals. Ranks below min_support are dropped and
        the rest are linked under their nearest kept ancestor, merging nodes
        whose kept paths coincide. When no reached rank is dropped, nothing
        can merge, so the ancestors are copied in one pass with no merge
        lookups. The result has the same nodes and counts as
        build_conditional_tree over conditional_pattern_base.

        The walk writes to the tree's walk array, allocated by the first call
        and reused by later ones; every entry the walk touched is reset before
        returning. So calls on one tree must not overlap, as they could if two
        threads projected it at once.
        """
        parents, ranks, counts = self.parents, self.ranks, self.counts
        # reached[i] is -1 until the walk reaches node i, then the summed
        # count of the chain nodes below it: direct children during the walk,
        # all descendants after the bottom-up pass. The root counts as
        # reached so every walk stops there.
        reached = self.walk
        if reached is None:
            reached = self.walk = [-1] * len(parents)
        reached[0] = 0
        ancestors: list[int] = []
        add_ancestor = ancestors.append
        try:
            for node in self.chains[rank]:
                above = parents[node]
                seen = reached[above]
                if seen >= 0:
                    reached[above] = seen + counts[node]
                    continue
                reached[above] = counts[node]
                add_ancestor(above)
                above = parents[above]
                while reached[above] < 0:
                    reached[above] = 0
                    add_ancestor(above)
                    above = parents[above]
            ancestors.sort(reverse=True)
            totals = [0] * rank
            for node in ancestors:
                below = reached[node]
                reached[parents[node]] += below
                totals[ranks[node]] += below
            kept = [total >= min_support for total in totals]
            if not any(kept):
                return FPTree(self.catalog, self.order, [])
            # Once a node is placed, reached[] holds its image in the projected
            # tree: its own new node, or its nearest kept ancestor's.
            reached[0] = 0
            if kept.count(False) == totals.count(0):
                # Every rank below min_support went unreached, so every ancestor
                # is kept and becomes exactly one node: no FP-tree node has two
                # children of one rank, so no two ancestors can merge.
                projected = FPTree(self.catalog, self.order, totals)
                new_parents, new_ranks = projected.parents, projected.ranks
                new_counts, chains = projected.counts, projected.chains
                add_parent, add_rank = new_parents.append, new_ranks.append
                add_count = new_counts.append
                for child, node in enumerate(reversed(ancestors), 1):
                    node_rank = ranks[node]
                    add_parent(reached[parents[node]])
                    add_rank(node_rank)
                    add_count(reached[node])
                    chains[node_rank].append(child)
                    reached[node] = child
                return projected
            projected = FPTree(
                self.catalog,
                self.order,
                [total if keep else 0 for total, keep in zip(totals, kept)],
            )
            new_parents, new_ranks = projected.parents, projected.ranks
            new_counts, chains = projected.counts, projected.chains
            children: dict[int, int] = {}
            for node in reversed(ancestors):
                node_rank = ranks[node]
                parent = reached[parents[node]]
                if kept[node_rank]:
                    # node_rank < rank, so the key names one (parent, rank) pair.
                    key = parent * rank + node_rank
                    child = children.get(key)
                    if child is None:
                        child = children[key] = len(new_parents)
                        new_parents.append(parent)
                        new_ranks.append(node_rank)
                        new_counts.append(reached[node])
                        chains[node_rank].append(child)
                    else:
                        new_counts[child] += reached[node]
                    reached[node] = child
                else:
                    reached[node] = parent
            return projected
        finally:
            for node in ancestors:
                reached[node] = -1


# perfbench/trace_cli.py patches the tree class under this name; the alias
# goes when the program reports its own trace (ROADMAP item 3).
RankedTree = FPTree


@dataclass
class TreeStats:
    """Node-creation counters across a mining run, conditional trees included.

    work_counter and mem_proxy_bytes are the figures the benchmark harness
    reports for every miner.
    """

    nodes_created: int = 0
    alive_nodes: int = 0
    peak_alive_nodes: int = 0

    @property
    def work_counter(self) -> int:
        return self.nodes_created

    @property
    def mem_proxy_bytes(self) -> int:
        """Peak count of live nodes under the fixed byte model."""
        return self.peak_alive_nodes * TREE_NODE_BYTES

    def created(self, count: int = 1) -> None:
        self.nodes_created += count
        self.alive_nodes += count
        if self.alive_nodes > self.peak_alive_nodes:
            self.peak_alive_nodes = self.alive_nodes

    def freed(self, count: int) -> None:
        self.alive_nodes -= count


@dataclass
class ConditionalPatternBase:
    """Prefix paths (root-to-parent order) with their counts, for one item."""

    paths: list[tuple[tuple[ItemId, ...], int]] = field(default_factory=list)


def _frequent_order(
    totals: Mapping[ItemId, int], min_support: int, catalog: ItemCatalog
) -> list[ItemId]:
    """Header order of the items whose total is at least min_support.

    Totals descend and ties go by ascending display label (Han, Pei & Yin,
    SIGMOD 2000, section 2).
    """
    order = [item for item, total in totals.items() if total >= min_support]
    order.sort(key=lambda item: (-totals[item], catalog.label(item)))
    return order


def _build(
    catalog: ItemCatalog,
    order: list[ItemId],
    totals: list[int],
    paths: Iterable[tuple[Sequence[int], int]],
) -> FPTree:
    """Insert each (rank path, count) pair in turn, merging shared prefixes."""
    tree = FPTree(catalog, order, totals)
    parents, ranks, counts, chains = tree.parents, tree.ranks, tree.counts, tree.chains
    width = len(order)
    # Ranks are below width, so the key names one (parent, rank) pair.
    children: dict[int, int] = {}
    for path, count in paths:
        node = 0
        for rank in path:
            key = node * width + rank
            child = children.get(key)
            if child is None:
                child = children[key] = len(parents)
                parents.append(node)
                ranks.append(rank)
                counts.append(count)
                chains[rank].append(child)
            else:
                counts[child] += count
            node = child
    return tree


def build_fptree(db: TransactionDb, min_support: int) -> tuple[FPTree, dict[ItemId, int]]:
    """Two-pass construction: count items, then insert each ranked transaction.

    The header maps exactly the items with support >= min_support to their
    totals, in header order, which is the tree's rank order; every frequent
    item appears in at least one transaction, so every rank has a chain.
    Equal transactions are counted first and each is ranked once; transactions
    whose frequent ranks coincide are then inserted once with their summed
    multiplicity, in ascending order of their rank tuples, which numbers the
    nodes depth-first.
    """
    if min_support < 1:
        raise ValidationError(f"min_support must be >= 1, got {min_support}")
    totals = item_frequencies(db)
    order = _frequent_order(totals, min_support, db.catalog)
    rank = {item: position for position, item in enumerate(order)}
    folded: Counter[tuple[int, ...]] = Counter()
    for transaction, count in Counter(db.transactions).items():
        folded[tuple(sorted([rank[item] for item in transaction if item in rank]))] += count
    del folded[()]
    header = {item: totals[item] for item in order}
    return _build(db.catalog, order, list(header.values()), sorted(folded.items())), header


def conditional_pattern_base(
    tree: FPTree, header: Mapping[ItemId, int], item: ItemId
) -> ConditionalPatternBase:
    """Every root-to-parent path above the item's nodes, with the node counts.

    Paths hold items, follow the chain order, and a node directly under the
    root contributes an empty path whose count still participates in
    conditional totals. Items outside the header raise KeyError.
    """
    if item not in header:
        raise KeyError(item)
    parents, ranks, counts, order = tree.parents, tree.ranks, tree.counts, tree.order
    base = ConditionalPatternBase()
    paths_append = base.paths.append
    for node in tree.chains[order.index(item)]:
        prefix: list[ItemId] = []
        prefix_append = prefix.append
        above = parents[node]
        while above:
            prefix_append(order[ranks[above]])
            above = parents[above]
        prefix.reverse()
        paths_append((tuple(prefix), counts[node]))
    return base


def build_conditional_tree(
    base: ConditionalPatternBase, min_support: int, catalog: ItemCatalog
) -> tuple[FPTree, dict[ItemId, int]]:
    """Re-insert the base's paths weighted by their counts, filtered by total.

    Items whose summed path counts fall below min_support are dropped, and
    the rest are ranked by their own header order, before insertion. An
    empty base (or one where nothing survives) yields an empty tree and an
    empty header.
    """
    totals: dict[ItemId, int] = {}
    totals_get = totals.get
    for path, count in base.paths:
        for item in path:
            totals[item] = totals_get(item, 0) + count
    order = _frequent_order(totals, min_support, catalog)
    rank = {item: position for position, item in enumerate(order)}
    paths = [([rank[item] for item in path if item in rank], count) for path, count in base.paths]
    header = {item: totals[item] for item in order}
    return _build(catalog, order, list(header.values()), paths), header


def _mine(
    tree: FPTree,
    suffix: Itemset,
    min_support: int,
    out: dict[Itemset, int],
    stats: TreeStats,
) -> None:
    # Highest rank first, as the reference route walks the top-level header
    # from its least frequent item upward.
    for rank in range(len(tree.chains) - 1, -1, -1):
        if not tree.chains[rank]:
            continue
        itemset = (*suffix, tree.order[rank])
        out[tuple(sorted(itemset))] = tree.totals[rank]
        subtree = tree.project(rank, min_support)
        created = subtree.node_count
        if created:
            stats.created(created)
            _mine(subtree, itemset, min_support, out, stats)
            stats.freed(created)


def fpgrowth_mine(
    db: TransactionDb, min_support: int, stats: TreeStats | None = None
) -> FrequentItemsets:
    """Mine all itemsets with support >= min_support by conditional projection."""
    if stats is None:
        stats = TreeStats()
    tree, header = build_fptree(db, min_support)
    created = tree.node_count
    stats.created(created)
    tree = RankedTree.from_fptree(tree, header)
    support: dict[Itemset, int] = {}
    _mine(tree, (), min_support, support, stats)
    stats.freed(created)
    return FrequentItemsets(support, db.n)


def dump_tree(tree: FPTree) -> str:
    """Indented label:count rendering, children sorted by display label."""
    label, order, ranks, counts = tree.catalog.label, tree.order, tree.ranks, tree.counts
    children: list[list[int]] = [[] for _ in tree.parents]
    for node in range(1, len(tree.parents)):
        children[tree.parents[node]].append(node)
    # An explicit stack, so a path longer than the recursion limit renders too.
    pending = [(0, -1)]
    lines: list[str] = []
    while pending:
        node, depth = pending.pop()
        if node:
            lines.append("  " * depth + f"{label(order[ranks[node]])}:{counts[node]}")
        below = sorted(children[node], key=lambda child: label(order[ranks[child]]), reverse=True)
        pending.extend((child, depth + 1) for child in below)
    return "\n".join(lines) + ("\n" if lines else "")
