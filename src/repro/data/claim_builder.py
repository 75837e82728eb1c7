"""Construction of the fact and claim tables from raw triples.

This implements Definitions 2 and 3 of the paper:

1. every distinct ``(entity, attribute)`` pair becomes a fact with a dense id;
2. for each fact, every source that asserted it contributes a **positive**
   claim;
3. every source that asserted *some other* attribute of the same entity — but
   not this fact — contributes a **negative** claim;
4. sources that said nothing about the entity contribute no claim at all.

The builder produces a :class:`~repro.data.dataset.ClaimMatrix`, the flat
numpy encoding consumed by every solver.

One construction path exists: :func:`bulk_build_claim_matrix` (behind
:func:`build_claim_matrix`, and hence the engine and the :mod:`repro.io`
sources) factorizes the entity / attribute / source columns with numpy and
runs the rules as array passes.  Row input (``Triple`` objects, 3-tuples, a
:class:`~repro.data.raw.RawDatabase`) is transposed into a
:class:`~repro.types.TripleColumns` first; a whole triple file read by
:func:`~repro.data.loaders.read_triple_columns` arrives as columns already,
so a file-to-matrix build creates no per-row object at all.

The row-at-a-time ``ClaimTableBuilder`` is deprecated: it still resolves
here, with a :class:`DeprecationWarning`, and wraps this builder.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro._deprecation import CLAIM_TABLE_BUILDER, deprecated_getattr
from repro.data.dataset import ClaimMatrix, TruthDataset
from repro.data.raw import RawDatabase, none_field_error
from repro.data.records import Fact
from repro.exceptions import DataModelError, DuplicateRowError, EmptyDatasetError
from repro.types import AttributeValue, EntityKey, FactId, Triple, TripleColumns

__all__ = [
    "build_claim_matrix",
    "build_dataset",
    "bulk_build_claim_matrix",
]

__getattr__ = deprecated_getattr(__name__, CLAIM_TABLE_BUILDER)


# ---------------------------------------------------------------------------
# Vectorized bulk ingest
# ---------------------------------------------------------------------------
def _factorize_first_seen(values: Sequence) -> tuple[np.ndarray, list, int | None]:
    """Encode ``values`` as dense integer codes in first-seen order.

    Returns ``(codes, uniques, none_code)`` with ``uniques[codes[i]] ==
    values[i]``, uniques ordered by first occurrence, and ``none_code`` the
    code of ``None`` (``None`` when no value is ``None``).  Dictionary
    encoding beats a sort-based ``np.unique`` here because the raw columns
    are Python objects (strings, occasionally numbers); everything
    downstream then runs on the resulting dense int64 codes.
    """
    mapping: dict = {}
    setdefault = mapping.setdefault
    codes = np.fromiter(
        (setdefault(v, len(mapping)) for v in values), count=len(values), dtype=np.int64
    )
    return codes, list(mapping), mapping.get(None)


def _rows_to_columns(rows: Sequence[Triple | tuple]) -> TripleColumns:
    """Transpose row input (``Triple`` objects and/or 3-tuples) into columns."""
    if not rows:
        return TripleColumns((), (), ())
    try:
        if isinstance(rows[0], Triple):
            return TripleColumns(
                [t.entity for t in rows], [t.attribute for t in rows], [t.source for t in rows]
            )
        return TripleColumns(*zip(*rows))
    except (AttributeError, TypeError, ValueError):
        # Mixed Triple / tuple input (or wrong arity): normalise and
        # validate element by element.
        norm = []
        for t in rows:
            if isinstance(t, Triple):
                norm.append(t.as_tuple())
            elif len(t) == 3:
                norm.append((t[0], t[1], t[2]))
            else:
                raise DataModelError(
                    f"expected (entity, attribute, source) triples, got {t!r}"
                ) from None
        return TripleColumns(*zip(*norm))


def bulk_build_claim_matrix(
    triples: Iterable[Triple | tuple] | RawDatabase | TripleColumns, strict: bool = False
) -> ClaimMatrix:
    """Build a :class:`~repro.data.dataset.ClaimMatrix` from triples, vectorized.

    Facts get dense ids in order of their first triple, sources in order of
    first appearance; each fact's claims are its positive claims in triple
    order, then its negative claims by ascending source id.  The
    claim-generation rules of Definitions 2-3 run as numpy factorizations
    and joins instead of per-triple appends — the difference between O(n)
    Python dict traffic and a handful of C-level array passes.  This is the
    path :func:`build_claim_matrix` (and therefore
    :class:`~repro.engine.TruthEngine` and the :mod:`repro.io` sources)
    take, keeping chunked streaming ingestion cheap.

    Parameters
    ----------
    triples:
        Raw assertion triples (``Triple`` objects or plain 3-tuples), an
        existing :class:`~repro.data.raw.RawDatabase`, or
        :class:`~repro.types.TripleColumns` (what
        :func:`~repro.data.loaders.read_triple_columns` returns).  Row input
        is transposed into columns first; columns go to the rules as-is.
    strict:
        When true, exact duplicate triples raise
        :class:`~repro.exceptions.DuplicateRowError` (mirroring
        ``RawDatabase(strict=True)``); when false duplicates are dropped.

    Raises
    ------
    DataModelError
        If a triple has a ``None`` field.
    """
    if isinstance(triples, TripleColumns):
        columns = triples
    else:
        if isinstance(triples, RawDatabase):
            strict = False  # a RawDatabase is already de-duplicated
        rows = triples if isinstance(triples, (list, tuple)) else list(triples)
        columns = _rows_to_columns(rows)
    return _claims_from_columns(columns, strict)


def _claims_from_columns(columns: TripleColumns, strict: bool) -> ClaimMatrix:
    """Definitions 2-3 over column input: the one core every build runs."""
    entities, attributes, src_col = columns.entities, columns.attributes, columns.sources
    num_triples = len(columns)
    if not num_triples:
        raise EmptyDatasetError("the raw database contains no triples")
    ent_codes, _, ent_none = _factorize_first_seen(entities)
    attr_codes, _, attr_none = _factorize_first_seen(attributes)
    src_codes, source_names, src_none = _factorize_first_seen(src_col)
    # None is no entity, value or source.
    for codes, none_code in ((ent_codes, ent_none), (attr_codes, attr_none), (src_codes, src_none)):
        if none_code is not None:
            row = int(np.argmax(codes == none_code))
            raise none_field_error((entities[row], attributes[row], src_col[row]))
    num_sources = len(source_names)

    # Facts: first-seen (entity, attribute) pairs, in triple order.
    pair_keys = ent_codes * (int(attr_codes.max()) + 1) + attr_codes
    uniq_pairs, first_idx, fact_of_triple = np.unique(
        pair_keys, return_index=True, return_inverse=True
    )
    pair_order = np.argsort(first_idx, kind="stable")
    pair_rank = np.empty(len(uniq_pairs), dtype=np.int64)
    pair_rank[pair_order] = np.arange(len(uniq_pairs), dtype=np.int64)
    fact_of_triple = pair_rank[fact_of_triple.ravel()]
    fact_first_idx = first_idx[pair_order]  # triple index introducing each fact
    num_facts = len(fact_first_idx)
    facts = [
        Fact(fid, entities[i], attributes[i])
        for fid, i in enumerate(fact_first_idx.tolist())
    ]

    # Positive claims: first occurrence of each (fact, source) pair, kept in
    # triple-scan order.
    pos_keys = fact_of_triple * num_sources + src_codes
    uniq_pos, pos_first = np.unique(pos_keys, return_index=True)
    if strict and len(uniq_pos) != num_triples:
        dup = int(np.setdiff1d(np.arange(num_triples), pos_first)[0])
        raise DuplicateRowError(
            f"duplicate raw triple {(entities[dup], attributes[dup], src_col[dup])!r}"
        )
    pos_first = np.sort(pos_first)
    pos_fact = fact_of_triple[pos_first]
    pos_src = src_codes[pos_first]

    # Entity coverage: distinct (entity, source) pairs, sorted by (entity,
    # source id) so each entity's block lists its sources ascending.
    es_keys = np.unique(ent_codes * num_sources + src_codes)
    es_ent = es_keys // num_sources
    es_src = es_keys % num_sources
    ent_counts = np.bincount(es_ent, minlength=int(ent_codes.max()) + 1)
    ent_ptr = np.concatenate(([0], np.cumsum(ent_counts)))

    # Candidate negative claims: for every fact (in fact-id order) expand the
    # covering sources of its entity, then drop the fact's positive pairs.
    fact_ent = ent_codes[fact_first_idx]
    reps = ent_counts[fact_ent]
    total = int(reps.sum())
    cand_fact = np.repeat(np.arange(num_facts, dtype=np.int64), reps)
    block_starts = np.concatenate(([0], np.cumsum(reps)))[:-1]
    intra = np.arange(total, dtype=np.int64) - np.repeat(block_starts, reps)
    cand_src = es_src[np.repeat(ent_ptr[fact_ent], reps) + intra]
    negative_mask = ~np.isin(cand_fact * num_sources + cand_src, uniq_pos)
    neg_fact = cand_fact[negative_mask]
    neg_src = cand_src[negative_mask]

    # Deliver the claims fact-sorted (positives in scan order, then negatives
    # by ascending source) so ClaimMatrix can take its no-reorder fast path.
    claim_fact = np.concatenate((pos_fact, neg_fact))
    claim_source = np.concatenate((pos_src, neg_src))
    claim_obs = np.concatenate(
        (np.ones(len(pos_fact), dtype=np.int8), np.zeros(len(neg_fact), dtype=np.int8))
    )
    order = np.argsort(claim_fact, kind="stable")
    return ClaimMatrix(
        facts=facts,
        source_names=source_names,
        claim_fact=claim_fact[order],
        claim_source=claim_source[order],
        claim_obs=claim_obs[order],
    )


def build_claim_matrix(
    triples: Iterable[Triple | tuple] | RawDatabase | TripleColumns, strict: bool = False
) -> ClaimMatrix:
    """Convenience function: triples (or a raw database) straight to a claim matrix.

    Routes through the vectorized :func:`bulk_build_claim_matrix`, which is
    property-tested against a row-at-a-time reference of Definitions 2-3.
    """
    return bulk_build_claim_matrix(triples, strict=strict)


def build_dataset(
    triples: Iterable[Triple | tuple] | RawDatabase,
    truth: Mapping[tuple[EntityKey, AttributeValue], bool] | None = None,
    name: str = "dataset",
    labelled_entities: Iterable[EntityKey] | None = None,
    strict: bool = False,
) -> TruthDataset:
    """Build a :class:`~repro.data.dataset.TruthDataset` from raw triples and ground truth.

    Parameters
    ----------
    triples:
        The raw assertion triples or an existing raw database.
    truth:
        Optional mapping from ``(entity, attribute)`` pairs to their ground
        truth.  Pairs not present in the claim matrix are ignored; pairs in
        the matrix but missing from ``truth`` are left unlabelled.
    name:
        Dataset name.
    labelled_entities:
        Optionally restrict labels to facts of these entities (mirrors the
        paper's 100-entity labelled samples).
    strict:
        Whether duplicate triples raise instead of being ignored.
    """
    matrix = bulk_build_claim_matrix(triples, strict=strict)
    fact_ids: dict[tuple[EntityKey, AttributeValue], FactId] = {
        (fact.entity, fact.attribute): fact.fact_id for fact in matrix.facts
    }
    labels: dict[FactId, bool] = {}
    restrict = set(labelled_entities) if labelled_entities is not None else None
    if truth:
        for pair, value in truth.items():
            fact_id = fact_ids.get(pair)
            if fact_id is None:
                continue
            if restrict is not None and pair[0] not in restrict:
                continue
            labels[fact_id] = bool(value)
    if not matrix.num_facts:
        raise EmptyDatasetError("no facts were derived from the raw database")
    return TruthDataset(
        name=name,
        claims=matrix,
        labels=labels,
        labelled_entities=tuple(restrict) if restrict is not None else (),
    )
