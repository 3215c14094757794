"""The selfcheck harness: seeded fuzz rounds over every RF implementation.

One *round* = generate a deterministic :class:`TreeCase` from a derived
seed, run the full check battery (differential oracles, analytic
oracles, metamorphic properties), and — on any failure — shrink the case
to a minimal reproducer and persist it as a seed+newick artifact.

The harness is wired through the observability subsystem: each round is
a ``selfcheck.round`` span and the battery increments
``selfcheck.rounds`` / ``selfcheck.checks`` / ``selfcheck.failures``
counters, so ``--metrics-out`` produces a machine-readable fuzz report.

Fault injection (``inject_fault``) deliberately corrupts one
implementation so the harness can prove, on demand, that it detects and
minimizes a real divergence — the ISSUE's "test the tester" criterion
and the unit tests' planted bug.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.hashing.bfh import BipartitionFrequencyHash
from repro.hashing.weighted import WeightedBipartitionHash
from repro.observability.metrics import counter as _metric
from repro.observability.spans import trace
from repro.testing.artifacts import write_artifact
from repro.testing.generators import PROFILES, CaseProfile, TreeCase, generate_case
from repro.store.store import BFHStore
from repro.testing.oracles import (
    Failure,
    check_backend_parity,
    check_caterpillar_max_rf,
    check_codec_roundtrip,
    check_differential_rf,
    check_differential_weighted,
    check_scan_parity,
    check_self_rf_zero,
    check_serve_parity,
    check_shm_roundtrip,
    check_store_roundtrip,
    check_symmetry,
    check_triangle,
    check_weighted_linearity,
    run_differential,
)
from repro.testing.properties import (
    prop_merge_associativity,
    prop_newick_roundtrip,
    prop_nexus_roundtrip,
    prop_prefix_monotonicity,
    prop_relabel_invariance,
    prop_reroot_invariance,
)
from repro.testing.shrink import shrink_case
from repro.util.rng import derive_seed

__all__ = ["CASE_CHECKS", "FAULT_KINDS", "inject_fault", "RoundResult",
           "SelfCheckResult", "SelfCheck"]

# Every case-level check, by the name used in artifacts and reports.
# ``differential-rf`` runs first: it is the paper's exactness claim.
CASE_CHECKS: dict[str, Callable[[TreeCase], list[Failure]]] = {
    "differential-rf": check_differential_rf,
    "backend-parity": check_backend_parity,
    "shm-roundtrip": check_shm_roundtrip,
    "differential-weighted": check_differential_weighted,
    "self-rf-zero": check_self_rf_zero,
    "symmetry": check_symmetry,
    "triangle": check_triangle,
    "weighted-linearity": check_weighted_linearity,
    "relabel-invariance": prop_relabel_invariance,
    "reroot-invariance": prop_reroot_invariance,
    "prefix-monotonicity": prop_prefix_monotonicity,
    "merge-associativity": prop_merge_associativity,
    "newick-roundtrip": prop_newick_roundtrip,
    "nexus-roundtrip": prop_nexus_roundtrip,
    "store-roundtrip": check_store_roundtrip,
    "codec-roundtrip": check_codec_roundtrip,
    "serve-parity": check_serve_parity,
    "scan-parity": check_scan_parity,
}


# ---------------------------------------------------------------------------
# Fault injection — proving the harness catches what it claims to catch.
# ---------------------------------------------------------------------------

def _inject_bfh_count() -> Callable[[], None]:
    """Corrupt the BFH: silently over-count one split per added tree."""
    original = BipartitionFrequencyHash.add_masks

    def corrupted(self, masks):
        original(self, masks)
        if self.counts:
            victim = min(self.counts)
            self.counts[victim] += 1  # count drifts; total does not

    BipartitionFrequencyHash.add_masks = corrupted
    return lambda: setattr(BipartitionFrequencyHash, "add_masks", original)


def _inject_weighted_total() -> Callable[[], None]:
    """Corrupt the weighted hash: inflate total_weight per added tree."""
    original = WeightedBipartitionHash.add_tree

    def corrupted(self, tree):
        original(self, tree)
        self.total_weight += 1.0

    WeightedBipartitionHash.add_tree = corrupted
    return lambda: setattr(WeightedBipartitionHash, "add_tree", original)


def _inject_store_count() -> Callable[[], None]:
    """Corrupt the store: silently over-count one split per merge that
    adds trees.

    Mirrors ``bfh-count`` but on the persistent path.  Every add, every
    bulk-build batch and every replayed run of add records is such a
    merge, so the store's in-memory frequencies drift from a fresh
    build, which only the ``store-roundtrip`` oracle can notice.  A
    weighted store's branch-length column gains a length with the
    count, so the drifted state still compacts.
    """
    original = BFHStore._merge

    def corrupted(self, run, *, n_taxa, remove):
        table = original(self, run, n_taxa=n_taxa, remove=remove)
        if not remove and len(table):
            table.counts[0] += 1  # one count drifts; total does not
            if table.lengths is not None:  # row 0's least length twice
                table.lengths = np.insert(table.lengths, 0, table.lengths[0])
        return table

    BFHStore._merge = corrupted
    return lambda: setattr(BFHStore, "_merge", original)


def _inject_shm_count() -> Callable[[], None]:
    """Corrupt the reference table the ``shm`` method ships to workers:
    bump one count of every table built from a dict hash.

    The dict hash stays honest, so only the table surfaces — the
    ``shm-roundtrip`` oracle, the shm rows of ``backend-parity``, the
    differential's table-probing methods — can notice the drift.
    """
    from repro.core.table import BipartitionTable

    original = BipartitionTable.from_bfh.__func__

    def corrupted(cls, bfh, n_taxa):
        table = original(cls, bfh, n_taxa)
        if len(table):
            table.counts[0] += 1  # one count drifts; the dict hash does not
        return table

    BipartitionTable.from_bfh = classmethod(corrupted)
    return lambda: setattr(BipartitionTable, "from_bfh",
                           classmethod(original))


FAULT_KINDS = ("bfh-count", "weighted-total", "store-count", "shm-count")


@contextlib.contextmanager
def inject_fault(kind: str | None) -> Iterator[None]:
    """Temporarily corrupt one implementation (no-op when ``kind`` is None)."""
    if kind is None:
        yield
        return
    if kind == "bfh-count":
        restore = _inject_bfh_count()
    elif kind == "weighted-total":
        restore = _inject_weighted_total()
    elif kind == "store-count":
        restore = _inject_store_count()
    elif kind == "shm-count":
        restore = _inject_shm_count()
    else:
        raise ValueError(f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
    try:
        yield
    finally:
        restore()


# ---------------------------------------------------------------------------
# Results.
# ---------------------------------------------------------------------------

@dataclass
class RoundResult:
    index: int
    seed: int
    strategy: str
    checks_run: int
    failures: list[Failure] = field(default_factory=list)
    failed_check: str | None = None
    artifact: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class SelfCheckResult:
    seed: int
    profile: str
    rounds: list[RoundResult] = field(default_factory=list)
    implementations: set[str] = field(default_factory=set)

    @property
    def checks_run(self) -> int:
        return sum(r.checks_run for r in self.rounds)

    @property
    def failures(self) -> list[Failure]:
        return [f for r in self.rounds for f in r.failures]

    @property
    def artifacts(self) -> list[Path]:
        return [r.artifact for r in self.rounds if r.artifact is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"selfcheck {status}: {len(self.rounds)} rounds, "
            f"{self.checks_run} checks, {len(self.failures)} failure(s) "
            f"(seed {self.seed}, profile {self.profile})",
            "implementations exercised: "
            + ", ".join(sorted(self.implementations)),
        ]
        for r in self.rounds:
            if not r.ok:
                lines.append(f"  round {r.index} (seed {r.seed}, {r.strategy}) "
                             f"failed {r.failed_check}:")
                lines.extend(f"    {f}" for f in r.failures[:5])
                if r.artifact is not None:
                    lines.append(f"    reproducer: {r.artifact}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The harness.
# ---------------------------------------------------------------------------

class SelfCheck:
    """Run ``rounds`` seeded fuzz rounds and minimize any failure found.

    Parameters
    ----------
    seed:
        Master seed; round ``i`` derives its own case seed from it.
    rounds:
        Number of cases to generate (profile default when ``None``).
    profile:
        ``"quick"`` or ``"deep"`` (or a custom :class:`CaseProfile`).
    artifact_dir:
        Where reproducer directories are written on failure.
    fault:
        Optional fault-injection kind (see :data:`FAULT_KINDS`).
    log:
        Progress sink (the CLI passes its Reporter; default: silent).
    """

    def __init__(self, seed: int, *, rounds: int | None = None,
                 profile: CaseProfile | str = "quick",
                 artifact_dir: str = "selfcheck-artifacts",
                 fault: str | None = None,
                 log: Callable[[str], None] | None = None):
        self.profile = PROFILES[profile] if isinstance(profile, str) else profile
        self.seed = int(seed)
        self.rounds = self.profile.default_rounds if rounds is None else int(rounds)
        self.artifact_dir = artifact_dir
        self.fault = fault
        self.log = log or (lambda _msg: None)

    def _run_round(self, index: int, result: SelfCheckResult) -> RoundResult:
        round_seed = derive_seed(self.seed, [index, 0x5E1FC]) & ((1 << 48) - 1)
        case = generate_case(round_seed, self.profile)
        rr = RoundResult(index=index, seed=round_seed, strategy=case.name,
                         checks_run=0)
        with trace("selfcheck.round", round=index, seed=round_seed,
                   strategy=case.name, taxa=case.n_taxa,
                   q=len(case.query), r=len(case.reference)) as span:
            # Differential first, capturing which implementations ran.
            try:
                report = run_differential(case)
            except Exception as exc:  # a crash is a finding, not an abort
                failures = [Failure("differential-rf",
                                    f"crashed: {type(exc).__name__}: {exc}")]
                failed_check = "differential-rf"
                rr.checks_run += 1
            else:
                result.implementations |= report.implementations
                rr.checks_run += 1
                failures = list(report.failures)
                failed_check = "differential-rf" if failures else None
            if not failures:
                for name, check in CASE_CHECKS.items():
                    if name == "differential-rf":
                        continue
                    try:
                        found = check(case)
                    except Exception as exc:
                        found = [Failure(name,
                                         f"crashed: {type(exc).__name__}: {exc}")]
                    rr.checks_run += 1
                    if found:
                        failures = found
                        failed_check = name
                        break
            # Standalone analytic anchor, scaled to the profile.
            if not failures:
                n = 4 + (round_seed % max(1, self.profile.max_taxa - 3))
                found = check_caterpillar_max_rf(n)
                rr.checks_run += 1
                if found:
                    failures = found
                    failed_check = "caterpillar-max-rf"
            _metric("selfcheck.checks").inc(rr.checks_run)
            if failures:
                rr.failures = failures
                rr.failed_check = failed_check
                _metric("selfcheck.failures").inc(len(failures))
                span.set(failed=failed_check)
                if failed_check in CASE_CHECKS:
                    rr.artifact = self._minimize(case, failed_check)
        return rr

    def _minimize(self, case: TreeCase, check_name: str) -> Path | None:
        check = CASE_CHECKS[check_name]
        with trace("selfcheck.shrink", check=check_name):
            try:
                shrunk = shrink_case(case, lambda c: bool(check(c)))
            except ValueError:
                # Flaky under re-execution; save the unshrunk case instead.
                shrunk = case
            try:
                final_failures = check(shrunk)
            except Exception as exc:
                final_failures = [Failure(
                    check_name, f"crashed: {type(exc).__name__}: {exc}")]
            path = write_artifact(self.artifact_dir, shrunk, check_name,
                                  final_failures)
        self.log(f"selfcheck: wrote reproducer {path}")
        return path

    def run(self) -> SelfCheckResult:
        result = SelfCheckResult(seed=self.seed, profile=self.profile.name)
        self.log(f"selfcheck: {self.rounds} rounds, profile "
                 f"{self.profile.name}, seed {self.seed}"
                 + (f", injected fault {self.fault}" if self.fault else ""))
        with inject_fault(self.fault):
            with trace("selfcheck", rounds=self.rounds, profile=self.profile.name):
                for index in range(self.rounds):
                    rr = self._run_round(index, result)
                    _metric("selfcheck.rounds").inc()
                    result.rounds.append(rr)
                    if not rr.ok:
                        self.log(f"selfcheck: round {index} FAILED "
                                 f"({rr.failed_check}); continuing")
        return result
