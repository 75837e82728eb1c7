"""Test-side references for the claim relations (Definitions 2-3).

:func:`reference_claim_matrix` runs the claim-generation rules one triple at
a time, sharing nothing with the vectorized builder in
:mod:`repro.data.claim_builder` but the output type: it is the independent
reference the bulk path is property-tested against (as the lgamma oracle in
``test_gibbs_oracle.py`` is for the Gibbs sweep).  :func:`claim_digests`
reduces a :class:`~repro.data.dataset.ClaimMatrix` to the SHA-256 digests
``golden_claims.json`` freezes.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.data.dataset import ClaimMatrix
from repro.data.records import Fact
from repro.types import Triple


def reference_claim_matrix(triples) -> ClaimMatrix:
    """Definitions 2-3, row at a time, over triples (duplicates dropped).

    Sources and facts get dense ids in first-seen order.  Each distinct
    ``(entity, attribute, source)`` triple is a positive claim, in scan
    order; then, fact by fact, every other source that asserted the fact's
    entity contributes a negative claim, by ascending source id.
    """
    distinct = dict.fromkeys(t.as_tuple() if isinstance(t, Triple) else tuple(t) for t in triples)
    source_ids: dict = {}
    fact_ids: dict = {}
    facts: list[Fact] = []
    entity_sources: dict = {}
    positive_by_fact: dict = {}
    claim_fact, claim_source, claim_obs = [], [], []
    for entity, attribute, source in distinct:
        source_id = source_ids.setdefault(source, len(source_ids))
        entity_sources.setdefault(entity, set()).add(source_id)
        if (entity, attribute) not in fact_ids:
            fact_ids[(entity, attribute)] = len(facts)
            facts.append(Fact(fact_id=len(facts), entity=entity, attribute=attribute))
        fact_id = fact_ids[(entity, attribute)]
        positive_by_fact.setdefault(fact_id, set()).add(source_id)
        claim_fact.append(fact_id)
        claim_source.append(source_id)
        claim_obs.append(True)
    for fact in facts:
        for source_id in sorted(entity_sources[fact.entity] - positive_by_fact[fact.fact_id]):
            claim_fact.append(fact.fact_id)
            claim_source.append(source_id)
            claim_obs.append(False)
    return ClaimMatrix(
        facts=facts,
        source_names=list(source_ids),
        claim_fact=np.asarray(claim_fact, dtype=np.int64),
        claim_source=np.asarray(claim_source, dtype=np.int64),
        claim_obs=np.asarray(claim_obs, dtype=np.int8),
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def claim_digests(matrix: ClaimMatrix) -> dict[str, str]:
    """Per-field SHA-256 digests of everything a claim matrix encodes.

    Names and facts are digested through ``repr``, so a non-string value
    (``1``, ``2.5``, ``(1, 2)``) never collides with its string rendering.
    """
    facts = [(fact.fact_id, fact.entity, fact.attribute) for fact in matrix.facts]
    return {
        "source_names": _sha256(repr(list(matrix.source_names)).encode("utf-8")),
        "facts": _sha256(repr(facts).encode("utf-8")),
        "claim_fact": _sha256(np.ascontiguousarray(matrix.claim_fact, dtype="<i8").tobytes()),
        "claim_source": _sha256(np.ascontiguousarray(matrix.claim_source, dtype="<i8").tobytes()),
        "claim_obs": _sha256(np.ascontiguousarray(matrix.claim_obs, dtype="<i1").tobytes()),
    }
