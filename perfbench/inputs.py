"""Seeded request inputs: planned query pools and simulated actuals.

Everything here runs outside every timed number.  Pools are planned with the
program's optimiser from the TPC-H, TPC-DS and Real-2 template sets; actuals
come from the execution simulator, exactly as the training corpus does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.catalog.real import build_real2_catalog
from repro.catalog.statistics import StatisticsCatalog
from repro.catalog.tpcds import build_tpcds_catalog
from repro.catalog.tpch import build_tpch_catalog
from repro.engine.executor import QueryExecutor
from repro.optimizer.planner import Planner
from repro.plan.plan import QueryPlan
from repro.query.real_templates import real2_template_set
from repro.query.tpcds_templates import tpcds_template_set
from repro.query.tpch_templates import tpch_template_set

#: The training corpus of ``repro train``: 144 TPC-H queries at scale factor
#: 0.1 with the ``fast`` profile's skew, template seed 7.
TRAIN_QUERIES = 144
TRAIN_SCALE = 0.1
TRAIN_SEED = 7

#: Sources of request plans: (template set, catalog factory).  TPC-H uses the
#: training catalog, so its plans are in distribution; TPC-DS and Real-2 are
#: other schemas (out of distribution for a TPC-H-trained model).
SOURCES = {
    "tpch": (tpch_template_set, lambda: build_tpch_catalog(scale_factor=TRAIN_SCALE, skew_z=1.5)),
    "tpcds": (tpcds_template_set, lambda: build_tpcds_catalog(scale_factor=0.1, skew_z=0.8)),
    "real2": (real2_template_set, lambda: build_real2_catalog(skew_z=1.4)),
}


def plan_pool(source: str, n_plans: int, seed: int) -> list[QueryPlan]:
    """``n_plans`` freshly planned queries of one source, seeded."""
    templates, build_catalog = SOURCES[source]
    catalog = build_catalog()
    planner = Planner(catalog, StatisticsCatalog(catalog))
    queries = templates().generate(catalog, n_plans, seed=seed)
    return [planner.plan(query) for query in queries]


def derive_seed(seed: int, stream: str) -> int:
    """A per-stream template seed, so pools of one run never share queries."""
    return int(np.random.SeedSequence([seed % (1 << 64), *stream.encode()]).generate_state(1)[0])


@dataclass
class Actuals:
    """Simulated query-level actuals of the distinct plans a run served."""

    cpu: dict[int, float]
    io: dict[int, float]

    @classmethod
    def execute(cls, plans: list[QueryPlan]) -> "Actuals":
        executor = QueryExecutor()
        cpu: dict[int, float] = {}
        io: dict[int, float] = {}
        for plan in plans:
            if id(plan) in cpu:
                continue
            result = executor.execute(plan)
            cpu[id(plan)] = result.total("cpu")
            io[id(plan)] = result.total("io")
        return cls(cpu=cpu, io=io)

    def of(self, plan: QueryPlan, resource: str) -> float:
        return (self.cpu if resource == "cpu" else self.io)[id(plan)]
