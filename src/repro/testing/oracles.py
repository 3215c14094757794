"""Cross-implementation and analytic oracles for the correctness harness.

The differential runner pushes one (Q, R) workload through every
applicable RF implementation — naive set-ops, Day's algorithm, BFHRF
fork-parallel, and *every method in the runtime registry* (bfhrf, ds,
dsmp, hashrf, mrsrf, shm — a newly registered method joins the
differential automatically) — and demands bitwise-equal averages.  All
unweighted paths reduce to the same integer arithmetic before one final
division by ``r``, so equality is exact, not approximate; any drift is
a bug, not noise.  A separate backend-parity oracle runs the executor
fan-out paths across serial/thread/fork(/spawn) backends and demands
the same exactness across *backends* too.

Analytic oracles check closed-form anchors that need no second
implementation: RF(T, T) = 0, the caterpillar max-RF pair, symmetry and
the triangle inequality of the metric, and linearity of the weighted
(branch-score) variant under global branch scaling.
"""

from __future__ import annotations

import math
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bipartitions.encoding import words_for_taxa
from repro.bipartitions.extract import bipartition_masks, bipartitions_with_lengths
from repro.bipartitions.scan import scan_newick_text
from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.day import day_rf
from repro.core.parallel import dsmp_average_rf
from repro.core.rf import max_rf, rf_from_mask_sets
from repro.core.shmrf import shm_average_rf
from repro.core.table import BipartitionTable, codecs, masks_to_words, \
    words_to_masks
from repro.hashing.weighted import WeightedBipartitionHash
from repro.newick.io import trees_from_string
from repro.newick.writer import format_label, write_newick
from repro.runtime import fork_available, get_method, methods
from repro.store import BFHStore, build_store
from repro.testing.generators import TreeCase, caterpillar_tree, max_rf_caterpillar_orders
from repro.trees.taxon import TaxonNamespace
from repro.trees.tree import Tree
from repro.util.rng import derive_seed

__all__ = [
    "Failure",
    "DifferentialReport",
    "IMPLEMENTATIONS",
    "naive_average_rf",
    "day_average_rf",
    "run_differential",
    "check_differential_rf",
    "check_differential_weighted",
    "check_backend_parity",
    "check_serve_parity",
    "check_shm_roundtrip",
    "check_self_rf_zero",
    "check_symmetry",
    "check_triangle",
    "check_weighted_linearity",
    "check_caterpillar_max_rf",
    "check_store_roundtrip",
    "check_codec_roundtrip",
    "check_scan_parity",
]

_REL_TOL = 1e-9


@dataclass
class Failure:
    """One oracle/property violation, precise enough to reproduce."""

    check: str
    detail: str
    implementation: str | None = None
    index: int | None = None

    def __str__(self) -> str:
        where = f"[{self.implementation}]" if self.implementation else ""
        at = f" tree {self.index}" if self.index is not None else ""
        return f"{self.check}{where}{at}: {self.detail}"


@dataclass
class DifferentialReport:
    """Aggregated result of one differential run."""

    baseline: str
    values: dict[str, list[float]] = field(default_factory=dict)
    failures: list[Failure] = field(default_factory=list)

    @property
    def implementations(self) -> set[str]:
        return set(self.values)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# Reference implementations of "average RF of each query tree vs R".
# ---------------------------------------------------------------------------

def _case_masks(trees: list[Tree], include_trivial: bool) -> list[set[int]]:
    return [bipartition_masks(t, include_trivial=include_trivial) for t in trees]


def naive_average_rf(query: list[Tree], reference: list[Tree], *,
                     include_trivial: bool = False) -> list[float]:
    """The ground-truth double loop over per-tree symmetric differences."""
    ref_masks = _case_masks(reference, include_trivial)
    out = []
    for tree in query:
        masks = bipartition_masks(tree, include_trivial=include_trivial)
        out.append(sum(rf_from_mask_sets(masks, rm) for rm in ref_masks)
                   / len(ref_masks))
    return out


def day_average_rf(query: list[Tree], reference: list[Tree], *,
                   include_trivial: bool = False) -> list[float]:
    """Average RF via Day's O(n) two-tree algorithm (identical coverage only).

    ``include_trivial`` is accepted for registry uniformity; pendant
    splits cancel over fixed taxa so the value is unchanged.
    """
    del include_trivial
    return [sum(day_rf(q, r) for r in reference) / len(reference) for q in query]


def _bfhrf_fork(query, reference, *, include_trivial=False):
    return bfhrf_average_rf(query, reference, n_workers=2,
                            include_trivial=include_trivial, executor="fork")


def _registry_impl(name: str):
    """Adapt one registered method to the differential call signature."""
    spec = get_method(name)

    def run(query, reference, *, include_trivial=False):
        return list(spec.run(query, reference, n_workers=1,
                             include_trivial=include_trivial,
                             transform=None, executor=None))

    return run


# The special entries are implementations that exist only inside this
# harness (the naive ground truth, Day's two-tree algorithm, the forced
# fork fan-out); everything else enumerates the runtime registry, so a
# newly registered method is differential-tested without edits here.
IMPLEMENTATIONS = {
    "naive": naive_average_rf,
    "day": day_average_rf,
    "bfhrf-fork": _bfhrf_fork,
    **{spec.name: _registry_impl(spec.name) for spec in methods()},
}


def _applicable(case: TreeCase) -> list[str]:
    names = ["naive"]
    if fork_available():
        names.append("bfhrf-fork")
    coverages = {t.leaf_mask() for t in case.query} | {t.leaf_mask() for t in case.reference}
    if len(coverages) == 1:
        names.append("day")
    for spec in methods():
        if case.same_collection or spec.supports_disparate:
            names.append(spec.name)
    return names


def run_differential(case: TreeCase) -> DifferentialReport:
    """Execute the case through every applicable implementation and compare."""
    report = DifferentialReport(baseline="naive")
    expected = naive_average_rf(case.query, case.reference,
                                include_trivial=case.include_trivial)
    report.values["naive"] = expected
    for name in _applicable(case):
        if name == "naive":
            continue
        impl = IMPLEMENTATIONS[name]
        got = list(impl(case.query, case.reference,
                        include_trivial=case.include_trivial))
        report.values[name] = got
        if len(got) != len(expected):
            report.failures.append(Failure(
                "differential-rf", f"returned {len(got)} values, expected {len(expected)}",
                implementation=name))
            continue
        for i, (g, e) in enumerate(zip(got, expected)):
            if g != e:
                report.failures.append(Failure(
                    "differential-rf", f"got {g!r}, naive says {e!r}",
                    implementation=name, index=i))
    return report


# ---------------------------------------------------------------------------
# Case-level checks (signature: case -> list[Failure]).
# ---------------------------------------------------------------------------

def check_differential_rf(case: TreeCase) -> list[Failure]:
    return run_differential(case).failures


def check_backend_parity(case: TreeCase) -> list[Failure]:
    """Executor backends must be invisible in the numbers.

    Runs the BFHRF comparison fan-out, the ``shm`` fan-out (dict vs
    sorted-table layouts) and the DSMP pipeline on every locally
    available backend with two workers and
    demands results bitwise-identical to the serial path — the executor
    abstraction's core contract.  The ``spawn`` backend costs a
    fresh-interpreter pool per fan-out, so it runs on a deterministic
    slice of cases and only for the BFHRF and shm paths; the cases it
    runs on derive from ``case.seed``, so the shrinker can replay the
    check.
    """
    failures: list[Failure] = []
    backends = ["serial", "thread"]
    if fork_available():
        backends.append("fork")
    if case.seed % 8 == 0:
        backends.append("spawn")

    want_rf = bfhrf_average_rf(case.query, case.reference, n_workers=1,
                               include_trivial=case.include_trivial)
    want_dsmp = dsmp_average_rf(case.query, case.reference, n_workers=1,
                                include_trivial=case.include_trivial)

    def compare(name: str, backend: str, got, want) -> None:
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                failures.append(Failure(
                    "backend-parity",
                    f"{name}: got {g!r}, serial says {w!r}",
                    implementation=backend, index=i))

    for backend in backends:
        compare("bfhrf", backend,
                bfhrf_average_rf(case.query, case.reference, n_workers=2,
                                 include_trivial=case.include_trivial,
                                 executor=backend),
                want_rf)
        # The sorted-table layout must agree with the dict layout on the
        # same backend — the shipped table's exactness contract.
        compare("shm", backend,
                shm_average_rf(case.query, case.reference, n_workers=2,
                               include_trivial=case.include_trivial,
                               executor=backend),
                want_rf)
        if backend == "spawn":
            continue  # bound the per-round cost to the two spawn pools
        compare("dsmp", backend,
                dsmp_average_rf(case.query, case.reference, n_workers=2,
                                include_trivial=case.include_trivial,
                                executor=backend),
                want_dsmp)
    return failures


def check_shm_roundtrip(case: TreeCase) -> list[Failure]:
    """The reference table must cross a process boundary exactly.

    Pickles the case's reference table the way a spawn fan-out ships it
    and demands (a) identical key/count tables back out (``to_bfh``),
    (b) identical probe answers for every stored mask plus a
    guaranteed-absent mask, and (c) identical average-RF values through
    :func:`shm_average_rf` on the unpickled table.  Splitless references
    (star trees) exercise the empty-table probe guard.  Runs in-process
    — no workers — so a violation is the table's fault, never an
    executor's.
    """
    failures: list[Failure] = []
    bfh = build_bfh(case.reference, include_trivial=case.include_trivial)
    n_taxa = max(1, len(case.reference[0].taxon_namespace))
    table = pickle.loads(pickle.dumps(BipartitionTable.from_bfh(bfh, n_taxa),
                                      protocol=pickle.HIGHEST_PROTOCOL))
    round_tripped = table.to_bfh()
    if round_tripped.counts != bfh.counts:
        drift = set(round_tripped.counts) ^ set(bfh.counts) or {
            m for m in bfh.counts
            if bfh.counts[m] != round_tripped.counts[m]}
        failures.append(Failure(
            "shm-roundtrip",
            f"key/count tables drift on {len(drift)} split(s)",
            implementation="shm"))
    if (round_tripped.n_trees, round_tripped.total) != (bfh.n_trees,
                                                        bfh.total):
        failures.append(Failure(
            "shm-roundtrip",
            f"totals drift: shm ({round_tripped.n_trees}, "
            f"{round_tripped.total}) vs dict ({bfh.n_trees}, {bfh.total})",
            implementation="shm"))
    # Mask 0 is guaranteed absent (every stored split sets >= 1 bit) and
    # survives word packing at the 64/128-bit boundary knob.
    masks = [*bfh.counts, 0]
    probed = table.vectorized().lookup_frequencies(
        masks_to_words(masks, table.n_words))
    for mask, got in zip(masks, probed.tolist()):
        if got != bfh.counts.get(mask, 0):
            failures.append(Failure(
                "shm-roundtrip",
                f"probe for {mask:#x} says {got}, "
                f"dict says {bfh.counts.get(mask, 0)}", implementation="shm"))
            break
    got = shm_average_rf(case.query, table=table)
    want = bfhrf_average_rf(case.query, case.reference,
                            include_trivial=case.include_trivial)
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            failures.append(Failure(
                "shm-roundtrip", f"avgRF {g!r} vs dict {w!r}",
                implementation="shm", index=i))
    return failures


def naive_average_branch_score(query: Tree, reference: list[Tree], *,
                               include_trivial: bool = False) -> float:
    """Ground-truth mean Kuhner–Felsenstein distance of one query tree."""
    wq = bipartitions_with_lengths(query, include_trivial=include_trivial)
    total = 0.0
    for ref in reference:
        wr = bipartitions_with_lengths(ref, include_trivial=include_trivial)
        total += sum(abs(wq.get(m, 0.0) - wr.get(m, 0.0)) for m in set(wq) | set(wr))
    return total / len(reference)


def check_differential_weighted(case: TreeCase) -> list[Failure]:
    """WeightedBipartitionHash vs the naive pairwise branch-score loop."""
    if not case.weighted:
        return []
    wh = WeightedBipartitionHash.from_trees(
        case.reference, include_trivial=case.include_trivial)
    failures = []
    for i, tree in enumerate(case.query):
        got = wh.average_branch_score(tree)
        want = naive_average_branch_score(tree, case.reference,
                                          include_trivial=case.include_trivial)
        if not math.isclose(got, want, rel_tol=_REL_TOL, abs_tol=1e-12):
            failures.append(Failure(
                "differential-weighted", f"hash says {got!r}, naive says {want!r}",
                implementation="weighted-hash", index=i))
    return failures


def check_self_rf_zero(case: TreeCase) -> list[Failure]:
    """RF(T, T) = 0 through every two-tree path and through the hash."""
    failures = []
    for i, tree in enumerate(case.query):
        if rf_from_mask_sets(bipartition_masks(tree), bipartition_masks(tree)) != 0:
            failures.append(Failure("self-rf-zero", "set model nonzero", index=i))
        if day_rf(tree, tree) != 0:
            failures.append(Failure("self-rf-zero", "day_rf nonzero",
                                    implementation="day", index=i))
        value = bfhrf_average_rf([tree], [tree])[0]
        if value != 0.0:
            failures.append(Failure("self-rf-zero", f"bfhrf says {value!r}",
                                    implementation="bfhrf", index=i))
    return failures


def check_symmetry(case: TreeCase) -> list[Failure]:
    """RF(a, b) = RF(b, a) for the set model and Day's algorithm."""
    failures = []
    pairs = list(zip(case.query, case.reference))
    for i, (a, b) in enumerate(pairs):
        ma, mb = bipartition_masks(a), bipartition_masks(b)
        if rf_from_mask_sets(ma, mb) != rf_from_mask_sets(mb, ma):
            failures.append(Failure("symmetry", "set model asymmetric", index=i))
        if a.leaf_mask() == b.leaf_mask() and day_rf(a, b) != day_rf(b, a):
            failures.append(Failure("symmetry", "day_rf asymmetric",
                                    implementation="day", index=i))
    return failures


def check_triangle(case: TreeCase) -> list[Failure]:
    """Triangle inequality of the RF metric over consecutive tree triples."""
    trees = case.query + ([] if case.same_collection else case.reference)
    failures = []
    for i in range(len(trees) - 2):
        a, b, c = trees[i], trees[i + 1], trees[i + 2]
        ma, mb, mc = (bipartition_masks(t) for t in (a, b, c))
        ab = rf_from_mask_sets(ma, mb)
        bc = rf_from_mask_sets(mb, mc)
        ac = rf_from_mask_sets(ma, mc)
        if ac > ab + bc:
            failures.append(Failure(
                "triangle", f"RF(a,c)={ac} > RF(a,b)+RF(b,c)={ab + bc}", index=i))
    return failures


def check_weighted_linearity(case: TreeCase, *, scale: float = 2.5) -> list[Failure]:
    """Branch-score linearity: scaling all branch lengths by c scales BS by c."""
    if not case.weighted:
        return []

    def scaled(tree: Tree) -> Tree:
        out = tree.copy()
        for node in out.preorder():
            if node.length is not None:
                node.length *= scale
        return out

    scaled_ref = [scaled(t) for t in case.reference]
    wh = WeightedBipartitionHash.from_trees(case.reference,
                                            include_trivial=case.include_trivial)
    wh_scaled = WeightedBipartitionHash.from_trees(scaled_ref,
                                                   include_trivial=case.include_trivial)
    failures = []
    for i, tree in enumerate(case.query):
        base = wh.average_branch_score(tree)
        scaled_value = wh_scaled.average_branch_score(scaled(tree))
        if not math.isclose(scaled_value, scale * base, rel_tol=1e-9, abs_tol=1e-9):
            failures.append(Failure(
                "weighted-linearity",
                f"BS(cT)={scaled_value!r} != c*BS(T)={scale * base!r}", index=i))
    return failures


def check_store_roundtrip(case: TreeCase) -> list[Failure]:
    """The persistent store vs a fresh build over the same reference set.

    Replays a seed-derived interleaving of ``add_trees`` / ``remove_trees``
    / ``compact`` against a store while mirroring the operations on a
    plain tree list, then demands that (a) the live store, (b) the store
    reopened from disk, and (c) a fresh :func:`bfhrf_average_rf` over the
    mirrored list all return *bitwise-identical* averages — the store's
    incremental-exactness contract, for the query trees and for the same
    query as Newick text.  Weighted cases additionally compare
    the store's branch-length multisets against a freshly built
    :class:`WeightedBipartitionHash`.

    Deterministic in ``case`` alone (ops derive from ``case.seed``), so
    the shrinker can replay it.
    """
    rng = np.random.default_rng(derive_seed(case.seed, [0x570BE]))
    failures: list[Failure] = []
    query_text = case.query_newick()

    def compare(store: BFHStore, current: list[Tree], where: str) -> None:
        if store.n_trees != len(current):
            failures.append(Failure(
                "store-roundtrip",
                f"store counts {store.n_trees} trees, shadow has "
                f"{len(current)}", implementation=where))
            return
        if not current:
            if len(store) != 0:
                failures.append(Failure(
                    "store-roundtrip",
                    f"empty shadow but store holds {len(store)} splits",
                    implementation=where))
            return
        got = store.average_rf(case.query)
        # The same query as Newick text is scanned, with no Tree built.
        text = store.average_rf(query_text)
        want = bfhrf_average_rf(case.query, current,
                                include_trivial=case.include_trivial)
        for i, (g, t, w) in enumerate(zip(got, text, want)):
            if g != w or t != w:
                failures.append(Failure(
                    "store-roundtrip", f"store says {g!r} for trees and "
                    f"{t!r} for Newick text, fresh build says {w!r}",
                    implementation=where, index=i))
        if case.weighted:
            fresh = WeightedBipartitionHash.from_trees(
                current, include_trivial=case.include_trivial)
            store_sets = {m: sorted(v)
                          for m, v in store.weighted_hash()._weights.items()}
            fresh_sets = {m: sorted(v) for m, v in fresh._weights.items()}
            if store_sets != fresh_sets:
                drift = set(store_sets) ^ set(fresh_sets) or {
                    m for m in store_sets if store_sets[m] != fresh_sets[m]}
                failures.append(Failure(
                    "store-roundtrip",
                    f"weight multisets drift on {len(drift)} split(s)",
                    implementation=where))

    with tempfile.TemporaryDirectory(prefix="store-oracle-") as td:
        path = Path(td) / "store"
        # Bulk-build all but one reference tree, then add the last one
        # incrementally — every round exercises both ingestion paths.
        current = list(case.reference)
        store = build_store(path, current[:-1],
                            n_shards=int(rng.integers(1, 4)),
                            include_trivial=case.include_trivial,
                            weighted=case.weighted)
        store.add_trees(current[-1:])
        compare(store, current, "build+add")
        for _step in range(4):
            op = rng.choice(["add", "remove", "compact"])
            if op == "add":
                picks = [case.reference[int(i)] for i in rng.integers(
                    0, len(case.reference), size=int(rng.integers(1, 3)))]
                store.add_trees(picks)
                current.extend(picks)
            elif op == "remove" and len(current) > 1:
                idx = int(rng.integers(0, len(current)))
                store.remove_trees([current[idx]])
                current.pop(idx)
            else:
                store.compact(int(rng.integers(1, 4)))
            if failures:
                return failures
            compare(store, current, f"step-{_step}")
        if failures:
            return failures
        reopened = BFHStore.open(path)
        compare(reopened, current, "reopen")
    return failures


# Namespace padding for scan-parity: taxon indices then straddle the 64-
# and 128-bit word boundaries.
_SCAN_PADDING = (0, 61, 125)


def check_scan_parity(case: TreeCase) -> list[Failure]:
    """The columnar scanner vs the ``Tree`` path, tree by tree.

    The case's trees are written as one Newick text (quoted hostile
    labels, branch lengths when weighted).  It is scanned, and parsed
    record by record, into two namespaces padded with the same labels so
    the trees' taxa sit across a word boundary.  Every tree's scanned
    rows must equal ``masks_to_words(sorted(bipartition_masks(t)))`` of
    the parsed tree, with and without trivial splits, and its leaf count
    must match.
    """
    trees = case.query if case.same_collection \
        else list(case.query) + list(case.reference)
    text = "".join(write_newick(t, include_lengths=case.weighted) + "\n"
                   for t in trees)
    rng = np.random.default_rng(derive_seed(case.seed, [0x5CA7]))
    padding = [f"pad{i}" for i in
               range(_SCAN_PADDING[int(rng.integers(len(_SCAN_PADDING)))])]
    scan_ns, parse_ns = TaxonNamespace(padding), TaxonNamespace(padding)
    scanned = scan_newick_text(text, scan_ns)
    parsed = trees_from_string(text, parse_ns)
    if scan_ns.labels != parse_ns.labels or len(scanned) != len(parsed):
        return [Failure("scan-parity",
                        f"scanned {len(scanned)} trees into "
                        f"{len(scan_ns)} taxa; parsed {len(parsed)} trees "
                        f"into {len(parse_ns)}")]
    failures = []
    n_words = words_for_taxa(len(parse_ns))
    for include_trivial in (False, True):
        block = scanned.block(n_words, include_trivial=include_trivial)
        ends = np.cumsum(block.counts)
        for i, tree in enumerate(parsed):
            rows = block.words[ends[i] - block.counts[i]:ends[i]]
            got = rows[np.lexsort(rows.T[::-1])]
            want = masks_to_words(sorted(bipartition_masks(
                tree, include_trivial=include_trivial)), n_words)
            if not np.array_equal(got, want):
                failures.append(Failure(
                    "scan-parity",
                    f"include_trivial={include_trivial}: scanned "
                    f"{sorted(words_to_masks(got))}, parsed "
                    f"{sorted(words_to_masks(want))}", index=i))
    for i, tree in enumerate(parsed):
        if scanned.leaf_counts[i] != tree.n_leaves:
            failures.append(Failure(
                "scan-parity", f"scanned {scanned.leaf_counts[i]} leaves, "
                f"parsed {tree.n_leaves}", index=i))
    return failures


def check_codec_roundtrip(case: TreeCase) -> list[Failure]:
    """Every registered table codec must be exact, and a format migration
    must not move a single bit of any answer.

    Two layers: (a) the case's reference table encodes and decodes
    through each codec in the registry back to identical contents —
    keys, counts, and (for weighted cases) branch-length multisets;
    (b) a store built in the legacy v1 snapshot format answers queries
    bitwise-identically before ``migrate()``, after it, and after a
    reopen of the migrated store.  A codec added to the registry later
    joins (a) automatically, the same way new RF methods join the
    differential.
    """
    failures: list[Failure] = []
    bfh = build_bfh(case.reference, include_trivial=case.include_trivial)
    weights = WeightedBipartitionHash.from_trees(
        case.reference, include_trivial=case.include_trivial)._weights \
        if case.weighted else None
    # Width comes from the namespace, not case.n_taxa: masks are
    # namespace-relative, and partial-coverage trees set bits above the
    # covered-taxa count.
    table = BipartitionTable.from_counts(
        bfh.counts, n_taxa=len(case.namespace), n_trees=bfh.n_trees,
        total=bfh.total, include_trivial=case.include_trivial,
        weights=weights)
    for spec in codecs():
        try:
            sections = spec.encode(table)
            decoded = spec.decode(sections, n_taxa=table.n_taxa,
                                  entries=len(table), weighted=table.weighted,
                                  include_trivial=table.include_trivial,
                                  n_trees=table.n_trees, total=table.total)
        except Exception as exc:  # noqa: BLE001 - any crash is a failure
            failures.append(Failure(
                "codec-roundtrip", f"round trip raised {exc!r}",
                implementation=spec.name))
            continue
        if not decoded.same_contents(table):
            failures.append(Failure(
                "codec-roundtrip",
                "decoded table differs from the encoded one",
                implementation=spec.name))
    if failures:
        return failures
    with tempfile.TemporaryDirectory(prefix="codec-oracle-") as td:
        path = Path(td) / "store"
        store = build_store(path, list(case.reference), n_shards=2,
                            include_trivial=case.include_trivial,
                            weighted=case.weighted, codec="v1")
        before = store.average_rf(case.query)
        store.migrate()
        after = store.average_rf(case.query)
        reopened = BFHStore.open(path).average_rf(case.query)
        for i, (b, a, r) in enumerate(zip(before, after, reopened)):
            if b != a or b != r:
                failures.append(Failure(
                    "codec-roundtrip",
                    f"v1 store says {b!r}, migrated says {a!r}, "
                    f"reopened says {r!r}", index=i))
    return failures


def _tail_replies(client, query_text: str, states: dict[int, list[float]],
                  final: int, implementation: str) -> list[Failure]:
    """Query until a reply stamps ``final`` reference trees; every reply
    must equal ``states`` at the reference-tree count it stamps."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        reply = client.request("query", trees=query_text)
        got = [float(v) for v in reply["values"]]
        if got != states.get(reply["reference_trees"]):
            return [Failure(
                "serve-parity", f"reply at {reply['reference_trees']} "
                f"reference trees says {got!r}",
                implementation=implementation)]
        if reply["reference_trees"] == final:
            return []
        time.sleep(0.02)
    return [Failure(
        "serve-parity",
        "daemon never converged on the externally added tree (last values "
        f"{got!r}, wanted {states[final]!r}, {reply['reference_trees']} "
        "reference trees)", implementation=implementation)]


def _check_extend_ns(store_dir: Path, reference: list[Tree],
                     include_trivial: bool) -> list[Failure]:
    """A query-only taxon across a tailed ``extend-ns`` record.

    The query ``((a,stranger),(b,c),d)`` binds ``stranger`` to the next
    free taxon bit.  An external writer then adds
    ``((a,newcomer),(b,c),(d,stranger))``, which names ``newcomer``
    first, so the store gives ``newcomer`` that bit: a query scanned
    before the tail and probed after it would read its split
    ``(a,stranger)`` as the stored ``(a,newcomer)``.  A batch window
    longer than the tail period lets the tail land between the scan and
    the probe.  Every reply must equal ``average_rf`` at the state it
    stamps, computed in the store's own bit order: a split over a leaf
    set the other tree lacks is anchored at its tree's lowest taxon bit,
    so the order matters.
    """
    from repro.core.api import average_rf
    from repro.serve import ServeClient, ServeConfig, serving

    writer = BFHStore.open(store_dir)
    if len(writer.labels) < 4:
        return []
    a, b, c, d = map(format_label, writer.labels[:4])  # ``a`` has bit 0
    # Longer than every stored label, so both are new taxa.
    stranger, newcomer = (ch * (1 + max(map(len, writer.labels)))
                          for ch in "xy")
    query = f"(({a},{stranger}),({b},{c}),{d});"
    added = f"(({a},{newcomer}),({b},{c}),({d},{stranger}));"
    reference_text = "\n".join(write_newick(t) for t in reference)
    states = {}
    for grown in (0, 1):
        ns = writer.namespace()
        # Parsing ``added`` first binds its new taxa in the store's order.
        extra = trees_from_string(added, ns) if grown else []
        states[writer.n_trees + grown] = average_rf(
            trees_from_string(query, ns),
            trees_from_string(reference_text, ns) + extra,
            include_trivial=include_trivial)
    socket_path = store_dir.parent / "extend-ns.sock"
    config = ServeConfig(endpoints=[str(socket_path)], tail_interval_s=0.01,
                         batch_window_s=0.03)
    with serving(store_dir, config), \
            ServeClient.connect(socket_path, retries=5) as client:
        failures = _tail_replies(client, query, states, writer.n_trees,
                                 "extend-ns")
        if not failures:
            writer.add_trees(added)
            failures = _tail_replies(client, query, states, writer.n_trees,
                                     "extend-ns")
    return failures


def check_serve_parity(case: TreeCase) -> list[Failure]:
    """The query daemon vs direct ``api.average_rf`` over the same store.

    Builds a store from ``case.reference``, starts an in-process
    :class:`~repro.serve.daemon.ServeDaemon` on a temp socket, queries
    it through the wire client, and demands the replies be
    *bitwise-identical* to :func:`repro.core.api.average_rf` over the
    same trees — the whole parse → protocol → batch → probe pipeline
    must not perturb a single bit.  The daemon listens on a unix socket
    *and* a TCP endpoint at once; both transports are queried and both
    must match — the NDJSON protocol is transport-agnostic by
    construction, and this oracle holds it there.  Then one reference
    tree is added by a *second* store handle (an external writer) and
    the daemon must tail it into view without restarting, again
    bit-for-bit.  Last, :func:`_check_extend_ns` sends a query holding
    a query-only taxon across a tailed ``extend-ns`` record.
    """
    from repro.core.api import average_rf
    from repro.serve import ServeClient, ServeConfig, serving

    failures: list[Failure] = []
    query_text = "\n".join(write_newick(t) for t in case.query)
    with tempfile.TemporaryDirectory(prefix="serve-oracle-") as td:
        store_dir = Path(td) / "store"
        build_store(store_dir, case.reference,
                    include_trivial=case.include_trivial,
                    weighted=case.weighted)
        socket_path = Path(td) / "serve.sock"
        config = ServeConfig(endpoints=[str(socket_path),
                                        "tcp://127.0.0.1:0"],
                             tail_interval_s=0.02)
        with serving(store_dir, config) as daemon:
            tcp_endpoint = daemon.bound_endpoints[1]
            with ServeClient.connect(socket_path, retries=5) as client:
                got = client.query(query_text)
                want = average_rf(case.query, case.reference,
                                  include_trivial=case.include_trivial)
                for i, (g, w) in enumerate(zip(got, want)):
                    if g != w:
                        failures.append(Failure(
                            "serve-parity",
                            f"daemon says {g!r}, api.average_rf says {w!r}",
                            implementation="warm", index=i))
                with ServeClient.connect(tcp_endpoint,
                                         retries=5) as tcp_client:
                    tcp_got = tcp_client.query(query_text)
                for i, (g, w) in enumerate(zip(tcp_got, want)):
                    if g != w:
                        failures.append(Failure(
                            "serve-parity",
                            f"TCP listener says {g!r}, api.average_rf "
                            f"says {w!r}", implementation="tcp", index=i))
                if failures:
                    return failures
                # External add -> journal tail must surface it live.
                # Every reply must equal the answer at the state it
                # reports, before the tail lands and after.
                writer = BFHStore.open(store_dir)
                extra = case.reference[:1]
                writer.add_trees(extra)
                reference = list(case.reference) + extra
                failures = _tail_replies(
                    client, query_text,
                    {len(case.reference): want,
                     len(reference): average_rf(
                         case.query, reference,
                         include_trivial=case.include_trivial)},
                    len(reference), "tail")
                if failures:
                    return failures
        return _check_extend_ns(store_dir, reference, case.include_trivial)


# ---------------------------------------------------------------------------
# Standalone analytic oracle (not tied to a generated case).
# ---------------------------------------------------------------------------

def check_caterpillar_max_rf(n_taxa: int) -> list[Failure]:
    """The constructed caterpillar pair must sit at max RF = 2(n-3)."""
    order_a, order_b = max_rf_caterpillar_orders(n_taxa)
    ns = TaxonNamespace()
    labels = [f"T{i:03d}" for i in range(n_taxa)]
    tree_a = caterpillar_tree([labels[i] for i in order_a], ns)
    tree_b = caterpillar_tree([labels[i] for i in order_b], ns)
    expected = max_rf(n_taxa)
    failures = []
    for name, value in (
        ("sets", rf_from_mask_sets(bipartition_masks(tree_a), bipartition_masks(tree_b))),
        ("day", day_rf(tree_a, tree_b)),
    ):
        if value != expected:
            failures.append(Failure(
                "caterpillar-max-rf", f"n={n_taxa}: got {value}, expected {expected}",
                implementation=name))
    return failures
