"""FP-Growth mining over conditional pattern bases held as rank bitmasks.

Items are ranked once, by descending frequency (label order breaks ties).
Each conditional pattern base (Han, Pei & Yin, SIGMOD 2000) is a RankedTree:
every path is one int with a bit per rank, mapped to its count, much as
H-Mine (Pei et al., ICDM 2001) keeps its bases in arrays, and no conditional
tree is built. The top-level base folds the distinct transactions straight
into masks over the frequent ranks. A base's masks are bucketed by their
highest rank, and the ranks are walked from the least frequent upward: a
rank's support is its bucket's summed count, and each of its masks, with the
rank's bit cleared, moves into the bucket of its new highest rank. Only a
frequent rank also keeps the cleared masks as its own base and recurses into
it. Infrequent ranks are never stripped from a mask, only never emitted.

The FP-tree stays as the path-by-path reference route: build_fptree builds
the top-level tree, conditional_pattern_base(tree, item) lists the prefix
paths above an item's nodes with their counts, and build_conditional_tree
inserts that list into a tree of its own. Output matches the levelwise miner
exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .apriori import FrequentItemsets
from .dataset import ItemCatalog, ItemId, Itemset, TransactionDb, item_frequencies
from .errors import ValidationError

# Sentinel rank for the root node; never a valid rank or catalog handle.
ROOT_ITEM: ItemId = -1

# Fixed memory model, so memory proxies compare across platforms: every mask
# entry of a conditional pattern base is charged the same number of bytes. An
# accounting constant, not a claim about the interpreter's real allocations.
TREE_NODE_BYTES = 160


class FPTree:
    """A prefix tree held as parallel lists, in header-rank space.

    order[r] is the item of rank r. Node 0 is the root, and every node's
    parent has a smaller index. chains[r] lists the nodes of rank r in the
    order they were created. The top-level tree's paths ascend in rank.
    build_conditional_tree ranks by its own header and keeps each path's order.
    """

    __slots__ = ("catalog", "order", "parents", "ranks", "counts", "chains")

    def __init__(self, catalog: ItemCatalog, order: list[ItemId]) -> None:
        self.catalog = catalog
        self.order = order
        self.parents = [0]
        self.ranks = [ROOT_ITEM]
        self.counts = [0]
        self.chains: list[list[int]] = [[] for _ in order]

    @property
    def node_count(self) -> int:
        return len(self.parents) - 1


class RankedTree:
    """A conditional pattern base, each prefix path a bitmask of its ranks.

    Bit r of a mask is set when the path holds order[r], the item of rank r;
    order is shared by every base of one run. buckets[r] maps each mask whose
    highest set bit is r to its count, and is None while it holds no mask;
    masks only ever move to lower buckets. node_count is the number of masks
    the base was built with. The class keeps the name under which
    perfbench/trace_cli.py times project.
    """

    __slots__ = ("order", "buckets", "node_count")

    def __init__(
        self, order: list[ItemId], buckets: list[dict[int, int] | None], node_count: int
    ) -> None:
        self.order = order
        self.buckets = buckets
        self.node_count = node_count

    # perfbench/trace_cli.py times this call by name as fpgrowth.rank_copy;
    # mining no longer makes it, and it goes when the program reports its own
    # trace (ROADMAP item 5).
    @classmethod
    def from_fptree(cls, tree: FPTree, header: Mapping[ItemId, int]) -> FPTree:
        return tree

    def fold(self, rank: int) -> None:
        """Empty a rank's bucket into the lower buckets.

        Each mask, with the rank's bit cleared, adds its count to its entry in
        the bucket of its new highest rank, so the lower ranks still count
        every path through them. A mask of the rank alone leaves no path.
        """
        buckets, bit = self.buckets, 1 << rank
        bucket = buckets[rank]
        buckets[rank] = None
        for mask, count in bucket.items():
            if rest := mask ^ bit:
                top = rest.bit_length() - 1
                below = buckets[top]
                if below is None:
                    buckets[top] = {rest: count}
                else:
                    below[rest] = below.get(rest, 0) + count

    def project(self, rank: int) -> RankedTree:
        """The rank's own base, folding its bucket into the lower ones as fold does.

        The base holds the bucket's masks with the rank's bit cleared, each
        with its count, and is as wide as the rank. Masks of one bucket are
        distinct and share their highest bit, so the cleared masks are
        distinct too, and only the mask of the rank alone is left out.
        """
        buckets, bit = self.buckets, 1 << rank
        bucket = buckets[rank]
        buckets[rank] = None
        sub: list[dict[int, int] | None] = [None] * rank
        for mask, count in bucket.items():
            if rest := mask ^ bit:
                top = rest.bit_length() - 1
                own = sub[top]
                if own is None:
                    sub[top] = {rest: count}
                else:
                    own[rest] = count
                below = buckets[top]
                if below is None:
                    buckets[top] = {rest: count}
                else:
                    below[rest] = below.get(rest, 0) + count
        return RankedTree(self.order, sub, len(bucket) - (bit in bucket))


@dataclass
class TreeStats:
    """Mask-entry counters across a mining run, every conditional base included.

    nodes_created counts the mask entries of every base built. peak_alive_nodes
    is the most entries held at once by the bases still being mined: the
    largest sum of node_count along one recursion path, which created is
    handed as alive. work_counter and mem_proxy_bytes are the figures the
    benchmark harness reports for every miner.
    """

    nodes_created: int = 0
    peak_alive_nodes: int = 0

    @property
    def work_counter(self) -> int:
        return self.nodes_created

    @property
    def mem_proxy_bytes(self) -> int:
        """Peak count of live mask entries under the fixed byte model."""
        return self.peak_alive_nodes * TREE_NODE_BYTES

    def created(self, count: int, alive: int) -> None:
        self.nodes_created += count
        if alive > self.peak_alive_nodes:
            self.peak_alive_nodes = alive


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
    catalog: ItemCatalog, order: list[ItemId], paths: Iterable[tuple[Sequence[int], int]]
) -> FPTree:
    """Insert each (rank path, count) pair in turn, merging shared prefixes."""
    tree = FPTree(catalog, order)
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


def _count_and_rank(
    db: TransactionDb, min_support: int
) -> tuple[Counter[Itemset], dict[ItemId, int], list[ItemId]]:
    """The distinct transactions with their counts, the item totals and the header order.

    Equal transactions are counted first, and the same fold is handed to
    item_frequencies for the totals.
    """
    if min_support < 1:
        raise ValidationError(f"min_support must be >= 1, got {min_support}")
    distinct = Counter(db.transactions)
    totals = item_frequencies(db, distinct)
    return distinct, totals, _frequent_order(totals, min_support, db.catalog)


def build_fptree(db: TransactionDb, min_support: int) -> tuple[FPTree, dict[ItemId, int]]:
    """Two-pass construction: count items, then insert each ranked transaction.

    The header maps exactly the items with support >= min_support to their
    totals, in header order, which is the tree's rank order; every frequent
    item appears in at least one transaction, so every rank has a chain.
    Each distinct transaction is inserted once, as its ranked path with its
    multiplicity, in first-seen order.
    """
    distinct, totals, order = _count_and_rank(db, min_support)
    rank = {item: position for position, item in enumerate(order)}
    paths = (
        (sorted([rank[item] for item in transaction if item in rank]), count)
        for transaction, count in distinct.items()
    )
    header = {item: totals[item] for item in order}
    return _build(db.catalog, order, paths), header


def conditional_pattern_base(tree: FPTree, item: ItemId) -> list[tuple[tuple[ItemId, ...], int]]:
    """Every root-to-parent path above the item's nodes, with the node counts.

    Paths hold items, follow the chain order, and a node directly under the
    root contributes an empty path whose count still participates in
    conditional totals. Items outside the tree's order raise KeyError.
    """
    parents, ranks, counts, order = tree.parents, tree.ranks, tree.counts, tree.order
    if item not in order:
        raise KeyError(item)
    paths: list[tuple[tuple[ItemId, ...], int]] = []
    for node in tree.chains[order.index(item)]:
        prefix: list[ItemId] = []
        prefix_append = prefix.append
        above = parents[node]
        while above:
            prefix_append(order[ranks[above]])
            above = parents[above]
        prefix.reverse()
        paths.append((tuple(prefix), counts[node]))
    return paths


def build_conditional_tree(
    base: list[tuple[tuple[ItemId, ...], int]], min_support: int, catalog: ItemCatalog
) -> tuple[FPTree, dict[ItemId, int]]:
    """Re-insert the base's paths weighted by their counts, filtered by total.

    Items whose summed path counts fall below min_support are dropped, and
    the rest are ranked by their own header order, before insertion. An
    empty base (or one where nothing survives) yields an empty tree and an
    empty header.
    """
    totals: dict[ItemId, int] = {}
    totals_get = totals.get
    for path, count in base:
        for item in path:
            totals[item] = totals_get(item, 0) + count
    order = _frequent_order(totals, min_support, catalog)
    rank = {item: position for position, item in enumerate(order)}
    paths = [([rank[item] for item in path if item in rank], count) for path, count in base]
    header = {item: totals[item] for item in order}
    return _build(catalog, order, paths), header


def _grow(
    base: RankedTree,
    suffix: Itemset,
    min_support: int,
    out: dict[Itemset, int],
    stats: TreeStats,
    alive: int,
) -> None:
    # alive sums the entries of base and of every base it was projected from.
    stats.created(base.node_count, alive)
    # Highest rank first, as the reference route walks the top-level header
    # from its least frequent item upward: by the time a rank is reached,
    # every mask through it has been folded down into its bucket.
    buckets = base.buckets
    for rank in range(len(buckets) - 1, -1, -1):
        bucket = buckets[rank]
        if bucket is None:
            continue
        total = sum(bucket.values())
        if total < min_support:
            base.fold(rank)
            continue
        itemset = (*suffix, base.order[rank])
        out[tuple(sorted(itemset))] = total
        sub = base.project(rank)
        if sub.node_count:
            _grow(sub, itemset, min_support, out, stats, alive + sub.node_count)


def build_mask_base(db: TransactionDb, min_support: int) -> RankedTree:
    """The top-level base: each distinct transaction as one mask of its frequent ranks.

    Ranks follow build_fptree's header order. Transactions whose frequent
    ranks coincide share one mask with their summed count, and a transaction
    with no frequent item leaves none.
    """
    distinct, _, order = _count_and_rank(db, min_support)
    bits = {item: 1 << rank for rank, item in enumerate(order)}.get
    buckets: list[dict[int, int] | None] = [None] * len(order)
    for transaction, count in distinct.items():
        mask = 0
        for item in transaction:
            mask |= bits(item, 0)
        if mask:
            top = mask.bit_length() - 1
            bucket = buckets[top]
            if bucket is None:
                buckets[top] = {mask: count}
            else:
                bucket[mask] = bucket.get(mask, 0) + count
    return RankedTree(order, buckets, sum(len(bucket) for bucket in buckets if bucket))


def fpgrowth_mine(
    db: TransactionDb, min_support: int, stats: TreeStats | None = None
) -> FrequentItemsets:
    """Mine all itemsets with support >= min_support from rank-bitmask bases."""
    if stats is None:
        stats = TreeStats()
    base = build_mask_base(db, min_support)
    support: dict[Itemset, int] = {}
    _grow(base, (), min_support, support, stats, base.node_count)
    return FrequentItemsets(support)


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
