"""FP-Growth mining over a prefix tree held as parallel lists.

Transactions are rewritten in descending item-frequency order (label order
breaks ties) so shared prefixes share nodes. Every tree is held as parallel
parents/items/counts lists plus one chain of node indices per header item;
the header is a dict from item to total. Mining relabels the top-level tree
by header rank, then walks the ranks from the least frequent upward. Each
rank's conditional tree is projected from the shared ancestors of its nodes:
every ancestor is reached once, its count summed bottom-up once, and the
infrequent items dropped as the tree is built. conditional_pattern_base and
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

# Sentinel item for the root node; never a valid catalog handle.
ROOT_ITEM: ItemId = -1

# Fixed memory model, so memory proxies compare across platforms: every tree
# node is charged the same number of bytes. An accounting constant, not a
# claim about the interpreter's real allocations.
TREE_NODE_BYTES = 160


class FPTree:
    """A prefix tree held as parallel lists, in item space.

    Node 0 is the root. Every node's parent has a smaller index, and the
    top-level tree numbers its nodes depth-first. chains maps each header
    item, in header order, to its nodes in ascending index order.
    """

    __slots__ = ("catalog", "parents", "items", "counts", "chains")

    def __init__(self, catalog: ItemCatalog, header: Iterable[ItemId]) -> None:
        self.catalog = catalog
        self.parents = [0]
        self.items = [ROOT_ITEM]
        self.counts = [0]
        self.chains: dict[ItemId, list[int]] = {item: [] for item in header}

    @property
    def node_count(self) -> int:
        return len(self.parents) - 1


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
    header: dict[ItemId, int],
    paths: Iterable[tuple[Sequence[ItemId], int]],
) -> FPTree:
    """Insert each (path, count) pair in turn, merging shared prefixes."""
    tree = FPTree(catalog, header)
    parents, items, counts, chains = tree.parents, tree.items, tree.counts, tree.chains
    width = len(catalog)
    # Item handles are below width, so the key names one (parent, item) pair.
    children: dict[int, int] = {}
    for path, count in paths:
        node = 0
        for item in path:
            key = node * width + item
            child = children.get(key)
            if child is None:
                child = children[key] = len(parents)
                parents.append(node)
                items.append(item)
                counts.append(count)
                chains[item].append(child)
            else:
                counts[child] += count
            node = child
    return tree


def build_fptree(db: TransactionDb, min_support: int) -> tuple[FPTree, dict[ItemId, int]]:
    """Two-pass construction: count items, then insert each ordered transaction.

    The header maps exactly the items with support >= min_support to their
    totals, in header order; every frequent item appears in at least one
    transaction, so every header item has a chain. Equal transactions are
    inserted once with their multiplicity, in ascending order of their rank
    tuples, which numbers the nodes depth-first.
    """
    if min_support < 1:
        raise ValidationError(f"min_support must be >= 1, got {min_support}")
    totals = item_frequencies(db)
    order = _frequent_order(totals, min_support, db.catalog)
    rank = {item: position for position, item in enumerate(order)}
    folded = Counter(
        tuple(sorted([rank[item] for item in transaction if item in rank]))
        for transaction in db.transactions
    )
    del folded[()]
    header = {item: totals[item] for item in order}
    paths = (([order[r] for r in ranks], count) for ranks, count in sorted(folded.items()))
    return _build(db.catalog, header, paths), header


def conditional_pattern_base(
    tree: FPTree, header: Mapping[ItemId, int], item: ItemId
) -> ConditionalPatternBase:
    """Every root-to-parent path above the item's nodes, with the node counts.

    Paths follow the chain order; a node directly under the root contributes
    an empty path whose count still participates in conditional totals.
    Items outside the header raise KeyError.
    """
    if item not in header:
        raise KeyError(item)
    parents, items, counts = tree.parents, tree.items, tree.counts
    base = ConditionalPatternBase()
    paths_append = base.paths.append
    for node in tree.chains[item]:
        prefix: list[ItemId] = []
        prefix_append = prefix.append
        above = parents[node]
        while above:
            prefix_append(items[above])
            above = parents[above]
        prefix.reverse()
        paths_append((tuple(prefix), counts[node]))
    return base


def build_conditional_tree(
    base: ConditionalPatternBase, min_support: int, catalog: ItemCatalog
) -> tuple[FPTree, dict[ItemId, int]]:
    """Re-insert the base's paths weighted by their counts, filtered by total.

    Items whose summed path counts fall below min_support are dropped before
    insertion. An empty base (or one where nothing survives) yields an empty
    tree and an empty header.
    """
    totals: dict[ItemId, int] = {}
    totals_get = totals.get
    for path, count in base.paths:
        for item in path:
            totals[item] = totals_get(item, 0) + count
    header = {item: totals[item] for item in _frequent_order(totals, min_support, catalog)}
    paths = [([item for item in path if item in header], count) for path, count in base.paths]
    return _build(catalog, header, paths), header


class RankedTree:
    """An FPTree's layout with items replaced by header rank.

    Rank r is the item at position r of the top-level header, and conditional
    trees keep those ranks, so paths stay in ascending rank order at every
    depth. Node 0 is the root. Every node's parent has a smaller index, so
    ascending index order is top-down and descending order is bottom-up.
    chains[r] lists the nodes of rank r and totals[r] is their summed count;
    a rank with no nodes has an empty chain and a zero total.
    """

    __slots__ = ("parents", "ranks", "counts", "chains", "totals")

    def __init__(self, totals: list[int]) -> None:
        self.parents = [0]
        self.ranks = [ROOT_ITEM]
        self.counts = [0]
        self.chains: list[list[int]] = [[] for _ in totals]
        self.totals = totals

    @property
    def node_count(self) -> int:
        return len(self.parents) - 1

    @classmethod
    def from_fptree(cls, tree: FPTree, header: Mapping[ItemId, int]) -> RankedTree:
        """Relabel a tree's items by their position in the header."""
        rank = {item: position for position, item in enumerate(header)}
        rank[ROOT_ITEM] = ROOT_ITEM
        ranked = cls(list(header.values()))
        ranked.parents = tree.parents.copy()
        ranked.ranks = list(map(rank.__getitem__, tree.items))
        ranked.counts = tree.counts.copy()
        ranked.chains = [tree.chains[item].copy() for item in header]
        return ranked

    def project(self, rank: int, min_support: int) -> RankedTree:
        """Conditional tree of one rank, built from its nodes' shared ancestors.

        Each chain node's parent collects the node's count, and the walk up
        from it stops at the first ancestor already reached, so every
        ancestor is visited once. One bottom-up pass then sums the counts
        and the conditional totals. Ranks below min_support are dropped and
        the rest are linked under their nearest kept ancestor, merging nodes
        whose kept paths coincide. The result has the same nodes and counts
        as build_conditional_tree over conditional_pattern_base.
        """
        parents, ranks, counts = self.parents, self.ranks, self.counts
        # reached[i] is -1 until the walk reaches node i, then the summed
        # count of the chain nodes below it: direct children during the walk,
        # all descendants after the bottom-up pass. The root counts as
        # reached so every walk stops there.
        reached = [-1] * len(parents)
        reached[0] = 0
        ancestors: list[int] = []
        add_ancestor = ancestors.append
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
            return RankedTree([])
        projected = RankedTree(
            [total if keep else 0 for total, keep in zip(totals, kept)]
        )
        new_parents, new_ranks, new_counts = (
            projected.parents,
            projected.ranks,
            projected.counts,
        )
        chains = projected.chains
        # Once a node is placed, reached[] holds its image in the projected
        # tree: its own new node, or its nearest kept ancestor's.
        reached[0] = 0
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


def _mine(
    tree: RankedTree,
    suffix: Itemset,
    items: Sequence[ItemId],
    min_support: int,
    out: dict[Itemset, int],
    stats: TreeStats,
) -> None:
    # Highest rank first, as the reference route walks the top-level header
    # from its least frequent item upward.
    for rank in range(len(tree.chains) - 1, -1, -1):
        if not tree.chains[rank]:
            continue
        itemset = (*suffix, items[rank])
        out[tuple(sorted(itemset))] = tree.totals[rank]
        subtree = tree.project(rank, min_support)
        created = subtree.node_count
        if created:
            stats.created(created)
            _mine(subtree, itemset, items, min_support, out, stats)
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
    ranked = RankedTree.from_fptree(tree, header)
    del tree  # mining reads only the ranked copy
    support: dict[Itemset, int] = {}
    _mine(ranked, (), list(header), min_support, support, stats)
    stats.freed(created)
    return FrequentItemsets(support, db.n)


def dump_tree(tree: FPTree) -> str:
    """Indented label:count rendering, children sorted by display label."""
    label, items, counts = tree.catalog.label, tree.items, tree.counts
    children: list[list[int]] = [[] for _ in tree.parents]
    for node in range(1, len(tree.parents)):
        children[tree.parents[node]].append(node)
    # An explicit stack, so a path longer than the recursion limit renders too.
    pending = [(0, -1)]
    lines: list[str] = []
    while pending:
        node, depth = pending.pop()
        if node:
            lines.append("  " * depth + f"{label(items[node])}:{counts[node]}")
        below = sorted(children[node], key=lambda child: label(items[child]), reverse=True)
        pending.extend((child, depth + 1) for child in below)
    return "\n".join(lines) + ("\n" if lines else "")
