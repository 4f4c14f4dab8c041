"""The benchmark's workloads: fixed instance lists, fixed check lists and
draw seeds derived from the benchmark's --seed.  Why each workload was
chosen is recorded in BENCHMARK.json and perfbench/README.md.

Every instance comes from `bglb.generators` and is a balanced sphere, so
every decided row must pass.  `seed_decided` and `seed_rows` record what
the first benchmarked commit reported; `seed_rows` is also the row count
charged as failed when a sample dies before writing its report.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

ALL_COMBINATORIAL = ("gorenstein,cm,bglb,rank_selected,lemma33,link_sum,flag_symmetry,equality,"
                     "multigraded")


@dataclass(frozen=True)
class Workload:
    name: str
    # (name, FamilySpec dict, or None for a default-suite instance)
    instances: tuple
    checks: str
    draws: int
    # traced function whose inclusive time should hold most of the run
    dominant: str
    seed_decided: int
    seed_rows: int

    def draw_seeds(self, seed: int) -> list[int]:
        """Distinct positive draw seeds, a pure function of --seed."""
        return random.Random(seed).sample(range(1, 1 << 20), self.draws)


def _suite(*names):
    return tuple((n, None) for n in names)


# The lists are trimmed from larger ones first proposed for these
# workloads, so that one sample takes 9-17 s on a 2-core box and the many
# repeated runs needed to judge one change finish within an hour.
WORKLOADS = {w.name: w for w in (
    Workload("combinatorial",
             _suite("cross_d2", "cross_d3", "cross_d4", "cross_d5", "cross_d6", "cross_d7",
                    "stacked_d4_m2", "stacked_d4_m3", "stacked_d5_m2", "stacked_d5_m3",
                    "sd_simplex_d2", "susp_sd_simplex_d2", "sd_simplex_d3",
                    "susp_sd_simplex_d3", "sd_simplex_d4", "susp_sd_simplex_d4"),
             ALL_COMBINATORIAL, 1, "complexes.rank_select", 873, 875),
    Workload("hilbert",
             _suite("cross_d4", "stacked_d4_m3", "sd_simplex_d3", "cross_d7", "stacked_d6_m2"),
             "hilbert", 1, "linalg.rank_mod_p", 8, 10),
    Workload("lefschetz",
             _suite("cross_d4", "stacked_d4_m3", "stacked_d5_m3", "sd_simplex_d3",
                    "susp_sd_simplex_d3"),
             "lefschetz", 2, "linalg.rank_and_extension_mod_p", 314, 315),
    Workload("certificates",
             (("cross_d8", {"family": "cross", "dim": 8}),
              ("stacked_d7_m2", {"family": "stacked_cross", "dim": 7, "count": 2, "seed": 1}),
              ("stacked_d6_m4", {"family": "stacked_cross", "dim": 6, "count": 4, "seed": 1}),
              ("susp_sd_simplex_d4", None)),
             "gorenstein,cm", 1, "util.parallel_map", 8, 8),
)}
