"""Differential correctness harness for the RF implementations.

The paper's headline claim is *exactness*: BFHRF's collision-free
full-bitmask keys mean every result must be bitwise-equal to the classic
tree-vs-tree computation.  This subsystem turns that claim into an
executable contract:

* :mod:`repro.testing.generators` — seeded, shrinkable random-tree and
  collection strategies (Yule, coalescent, perturbation, caterpillar /
  balanced extremes, multifurcations, variable-taxa overlap, weighted
  and zero-length branches, Newick-hostile labels);
* :mod:`repro.testing.oracles` — the differential runner (naive set-ops,
  Day, HashRF, BFHRF serial + fork, shm) and analytic anchors
  (RF(T,T)=0, caterpillar max-RF, symmetry, triangle inequality,
  weighted linearity);
* :mod:`repro.testing.properties` — metamorphic invariances (relabel,
  reroot/rotation, hash prefix monotonicity, merge associativity,
  Newick/NEXUS round-trip);
* :mod:`repro.testing.shrink` / :mod:`repro.testing.artifacts` — failing
  cases are bisected down to minimal seed+newick reproducers on disk;
* :mod:`repro.testing.harness` — the ``repro selfcheck`` round loop,
  instrumented through the observability subsystem.
"""

from repro.testing.artifacts import load_artifact, replay_artifact, write_artifact
from repro.testing.generators import (
    PROFILES,
    CaseProfile,
    TreeCase,
    generate_case,
)
from repro.testing.harness import (
    CASE_CHECKS,
    FAULT_KINDS,
    SelfCheck,
    SelfCheckResult,
    inject_fault,
)
from repro.testing.oracles import (
    DifferentialReport,
    Failure,
    IMPLEMENTATIONS,
    naive_average_rf,
    run_differential,
)
from repro.testing.shrink import shrink_case

__all__ = [
    "PROFILES",
    "CaseProfile",
    "TreeCase",
    "generate_case",
    "CASE_CHECKS",
    "FAULT_KINDS",
    "SelfCheck",
    "SelfCheckResult",
    "inject_fault",
    "DifferentialReport",
    "Failure",
    "IMPLEMENTATIONS",
    "naive_average_rf",
    "run_differential",
    "shrink_case",
    "write_artifact",
    "load_artifact",
    "replay_artifact",
]
