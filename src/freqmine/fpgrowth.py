"""FP-Growth mining over a prefix tree with per-item node-link chains.

Transactions are rewritten in descending item-frequency order (label order
breaks ties) so shared prefixes share nodes. Mining copies the tree once into
parallel lists keyed by header rank, then walks the ranks from the least
frequent upward. Each rank's conditional tree is projected from the shared
ancestors of its nodes: every ancestor is reached once, its count summed
bottom-up once, and the infrequent items dropped as the tree is built.
conditional_pattern_base and build_conditional_tree remain the path-by-path
reference route and give the same trees. Output matches the levelwise miner
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .apriori import FrequentItemsets
from .dataset import ItemCatalog, ItemId, Itemset, TransactionDb, item_frequencies
from .errors import ValidationError

# Sentinel item for the root node; never a valid catalog handle.
ROOT_ITEM: ItemId = -1

# Fixed memory model, so memory proxies compare across platforms: every tree
# node costs one object footprint. An accounting constant, not a claim about
# the interpreter's real allocations.
TREE_NODE_BYTES = 160


class FPNode:
    """One prefix-tree node; next_same_item threads the per-item chain."""

    __slots__ = ("item", "count", "parent", "children", "next_same_item")

    def __init__(self, item: ItemId, parent: "FPNode | None") -> None:
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[ItemId, FPNode] = {}
        self.next_same_item: FPNode | None = None

    def __repr__(self) -> str:
        return f"FPNode(item={self.item}, count={self.count})"


@dataclass
class HeaderEntry:
    """Header-table row: an item, its total support, and its chain head."""

    item: ItemId
    total: int
    head: FPNode


class HeaderTable:
    """Per-item index ordered by descending total, ties by ascending label."""

    def __init__(self, entries: list[HeaderEntry]) -> None:
        self.entries = entries
        self._by_item = {entry.item: entry for entry in entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[HeaderEntry]:
        return iter(self.entries)

    def __contains__(self, item: ItemId) -> bool:
        return item in self._by_item

    def entry(self, item: ItemId) -> HeaderEntry:
        """Entry for an item; unknown items raise KeyError."""
        return self._by_item[item]


class FPTree:
    """Prefix tree of frequency-ordered transactions."""

    def __init__(self, catalog: ItemCatalog) -> None:
        self.catalog = catalog
        self.root = FPNode(ROOT_ITEM, None)
        self.node_count = 0


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


def _insert(
    tree: FPTree,
    sequence: Sequence[ItemId],
    count: int,
    heads: dict[ItemId, FPNode],
    tails: dict[ItemId, FPNode],
) -> None:
    """Add one ordered sequence with a count, extending chains at the tail."""
    node = tree.root
    created = 0
    for item in sequence:
        children = node.children
        child = children.get(item)
        if child is None:
            child = FPNode(item, node)
            children[item] = child
            created += 1
            tail = tails.get(item)
            if tail is None:
                heads[item] = child
            else:
                tail.next_same_item = child
            tails[item] = child
        child.count += count
        node = child
    tree.node_count += created


def build_fptree(db: TransactionDb, min_support: int) -> tuple[FPTree, HeaderTable]:
    """Two-pass construction: count items, then insert each ordered transaction.

    The header table contains exactly the items with support >= min_support;
    every frequent item appears in at least one transaction, so every header
    entry has a chain.
    """
    if min_support < 1:
        raise ValidationError(f"min_support must be >= 1, got {min_support}")
    counts = item_frequencies(db)
    # Ranks encode the header order once so per-transaction sorting stays cheap.
    order = _frequent_order(counts, min_support, db.catalog)
    rank = {item: position for position, item in enumerate(order)}
    rank_of = rank.__getitem__
    tree = FPTree(db.catalog)
    heads: dict[ItemId, FPNode] = {}
    tails: dict[ItemId, FPNode] = {}
    for transaction in db.transactions:
        sequence = [item for item in transaction if item in rank]
        if sequence:
            sequence.sort(key=rank_of)
            _insert(tree, sequence, 1, heads, tails)
    return tree, HeaderTable([HeaderEntry(item, counts[item], heads[item]) for item in order])


def conditional_pattern_base(
    tree: FPTree, header: HeaderTable, item: ItemId
) -> ConditionalPatternBase:
    """Every root-to-parent path above the item's nodes, with the node counts.

    Paths follow the chain order; a node directly under the root contributes
    an empty path whose count still participates in conditional totals.
    Unknown items raise KeyError via the header lookup.
    """
    entry = header.entry(item)
    base = ConditionalPatternBase()
    paths_append = base.paths.append
    root = tree.root
    node: FPNode | None = entry.head
    while node is not None:
        prefix: list[ItemId] = []
        prefix_append = prefix.append
        above = node.parent
        while above is not root:
            prefix_append(above.item)
            above = above.parent
        prefix.reverse()
        paths_append((tuple(prefix), node.count))
        node = node.next_same_item
    return base


def build_conditional_tree(
    base: ConditionalPatternBase, min_support: int, catalog: ItemCatalog
) -> tuple[FPTree, HeaderTable]:
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
    order = _frequent_order(totals, min_support, catalog)
    kept = set(order)
    tree = FPTree(catalog)
    heads: dict[ItemId, FPNode] = {}
    tails: dict[ItemId, FPNode] = {}
    for path, count in base.paths:
        _insert(tree, [item for item in path if item in kept], count, heads, tails)
    return tree, HeaderTable([HeaderEntry(item, totals[item], heads[item]) for item in order])


class RankedTree:
    """An FP-tree held as parallel lists, with items replaced by header rank.

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
    def from_fptree(cls, tree: FPTree, header: HeaderTable) -> RankedTree:
        """Copy a tree, numbering items by their position in the header."""
        rank = {entry.item: position for position, entry in enumerate(header.entries)}
        ranked = cls([entry.total for entry in header.entries])
        pending = [(tree.root, 0)]
        while pending:
            node, index = pending.pop()
            for child in node.children.values():
                child_rank = rank[child.item]
                ranked.chains[child_rank].append(len(ranked.parents))
                pending.append((child, len(ranked.parents)))
                ranked.parents.append(index)
                ranked.ranks.append(child_rank)
                ranked.counts.append(child.count)
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
    stats.created(tree.node_count)
    items = [entry.item for entry in header.entries]
    support: dict[Itemset, int] = {}
    _mine(RankedTree.from_fptree(tree, header), (), items, min_support, support, stats)
    stats.freed(tree.node_count)
    return FrequentItemsets(support, db.n)


def dump_tree(tree: FPTree) -> str:
    """Indented label:count rendering, children sorted by display label."""
    lines: list[str] = []

    def walk(node: FPNode, depth: int) -> None:
        children = sorted(
            node.children.values(), key=lambda child: tree.catalog.label(child.item)
        )
        for child in children:
            lines.append("  " * depth + f"{tree.catalog.label(child.item)}:{child.count}")
            walk(child, depth + 1)

    walk(tree.root, 0)
    return "\n".join(lines) + ("\n" if lines else "")
