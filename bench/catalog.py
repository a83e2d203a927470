"""A seeded synthetic security catalog, standing in for a real-size KB.

A few hundred OIDs per dimension, and table rows whose fan-out varies
from one to six, so translations differ in cost the way a real catalog's
would.  The catalog seed is fixed: the catalog is the system's
configuration, like the seed KB, and the correctness gate's digest depends
on it.  The benchmark seed only chooses what the initiators ask for.
"""

from __future__ import annotations

import random

from ssla.expression import Dictionary, Dimension, ExpressionSet, Oid, SecurityExpression, SetRole
from ssla.translation import ADJACENT_PAIRS, KnowledgeBase, TranslationTable

CATALOG_SEED = 7088
CATALOG_POW_BITS = 0
SIZES = {Dimension.TARGET: 200, Dimension.RISK: 300, Dimension.FUNCTION: 300, Dimension.TECHNIQUE: 300}
# Fan-out of a row and how often it occurs; a Function with no row is
# already concrete, as Function.15 is in the seed KB.
FAN_OUT = {
    Dimension.TARGET: ((1, 2, 3, 4, 6), (3, 4, 3, 2, 1)),
    Dimension.RISK: ((1, 2, 3, 5), (4, 4, 2, 1)),
    Dimension.FUNCTION: ((0, 1, 2, 3, 4), (2, 4, 4, 2, 1)),
}
SP_TECHNIQUES = 10
SP_FUNCTIONS = 2
REQUIREMENTS_PER_NEGOTIATION = 2


class Catalog:
    def __init__(self, seed: int = CATALOG_SEED) -> None:
        rng = random.Random(f"catalog:{seed}")
        self.oids = {}
        for dim, size in SIZES.items():
            arcs = set()
            while len(arcs) < size:
                arcs.add((rng.randint(1, 40), rng.randint(1, 30)))
            self.oids[dim] = [Oid(dim, a) for a in sorted(arcs)]
        self.tables = {}
        for source, target in ADJACENT_PAIRS:
            fan, weights = FAN_OUT[source]
            rows = {}
            for key in self.oids[source]:
                width = rng.choices(fan, weights)[0]
                if width:
                    rows[key] = tuple(sorted(rng.sample(self.oids[target], width)))
            self.tables[(source, target)] = rows
        # the responder's capabilities are configuration too: some
        # techniques plus some row-less functions
        techniques = rng.sample(self.oids[Dimension.TECHNIQUE], SP_TECHNIQUES)
        suggest = self.tables[(Dimension.FUNCTION, Dimension.TECHNIQUE)]
        functions = rng.sample([f for f in self.oids[Dimension.FUNCTION] if f not in suggest], SP_FUNCTIONS)
        self.provider_capabilities = ExpressionSet(
            SetRole.CAPABILITY, tuple(SecurityExpression.single(o) for o in sorted(techniques) + sorted(functions))
        )

    def knowledge_base(self) -> KnowledgeBase:
        dictionaries = {
            dim: Dictionary(dim, {oid: f"{dim.label.lower()} {i}" for i, oid in enumerate(oids)})
            for dim, oids in self.oids.items()
        }
        tables = {
            pair: TranslationTable(pair[0], pair[1], rows) for pair, rows in self.tables.items()
        }
        return KnowledgeBase(dictionaries, tables)


class Draws:
    """Fresh requirement and capability sets for each negotiation.

    Most requirements are drawn from what the responder can satisfy: about
    three in four negotiations end in a counter and a confirmation, one in
    ten is accepted in round 1, and the rest are cancelled.  Keeping the
    cheap cancels a minority keeps the median inside one outcome's costs.
    """

    def __init__(self, catalog: Catalog, sp_caps: ExpressionSet, seed: int) -> None:
        self.rng = random.Random(f"{seed}:draws")
        self.catalog = catalog
        held = {c.operative for c in sp_caps}
        self.held_techniques = sorted(o for o in held if o.dimension is Dimension.TECHNIQUE)
        suggest = catalog.tables[(Dimension.FUNCTION, Dimension.TECHNIQUE)]
        self.satisfiable_functions = sorted(
            f for f in catalog.oids[Dimension.FUNCTION] if f in held or set(suggest.get(f, ())) & held
        )
        ok = set(self.satisfiable_functions)
        risk_rows = catalog.tables[(Dimension.RISK, Dimension.FUNCTION)]
        self.satisfiable_risks = sorted(r for r, fs in risk_rows.items() if set(fs) <= ok)

    def _requirement(self) -> Oid:
        pick = self.rng.random()
        if pick < 0.30:
            return self.rng.choice(self.held_techniques)
        if pick < 0.34:
            return self.rng.choice(self.catalog.oids[Dimension.TECHNIQUE])
        if pick < 0.70 or not self.satisfiable_risks:
            return self.rng.choice(self.satisfiable_functions)
        if pick < 0.96:
            return self.rng.choice(self.satisfiable_risks)
        return self.rng.choice(self.catalog.oids[Dimension.FUNCTION])

    def next(self) -> tuple[ExpressionSet, ExpressionSet]:
        reqs: list[Oid] = []
        while len(reqs) < REQUIREMENTS_PER_NEGOTIATION:
            oid = self._requirement()
            if oid not in reqs:
                reqs.append(oid)
        caps = set(self.rng.sample(self.held_techniques, self.rng.randint(0, 2)))
        caps.add(self.rng.choice(self.catalog.oids[Dimension.TECHNIQUE]))
        return (
            ExpressionSet(SetRole.REQUIREMENT, tuple(SecurityExpression.single(o) for o in reqs)),
            ExpressionSet(SetRole.CAPABILITY, tuple(SecurityExpression.single(o) for o in sorted(caps))),
        )

