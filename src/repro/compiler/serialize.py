"""Save/load compiled mappings as JSON artefacts.

A deployment pipeline compiles once and configures many machines; this
module makes the compiled placement a durable artefact: the automaton
(embedded as ANML), the design-point name, and every partition's STE
placement round-trip through JSON.  Loading re-validates wire budgets, so
a stale artefact compiled against different constraints is rejected
rather than silently mis-simulated.
"""

from __future__ import annotations

import json
from typing import Dict

import numpy as np

from repro.automata.anml import from_anml, to_anml
from repro.compiler.constraints import check
from repro.compiler.mapping import Mapping, placement_arrays
from repro.core.design import CA_64, CA_P, CA_S, DesignPoint
from repro.errors import CompileError

FORMAT_VERSION = 1

_BUILTIN_DESIGNS = {design.name: design for design in (CA_P, CA_S, CA_64)}


def mapping_to_json(mapping: Mapping) -> str:
    """Serialise a mapping (automaton + placement) to a JSON document."""
    payload = {
        "format_version": FORMAT_VERSION,
        "design": mapping.design.name,
        "automaton_anml": to_anml(mapping.automaton),
        "partitions": [
            {
                "index": partition.index,
                "way": partition.way,
                "stes": list(partition.ste_ids),
            }
            for partition in mapping.partitions
        ],
    }
    return json.dumps(payload, indent=2)


def mapping_from_json(
    document: str,
    *,
    designs: Dict[str, DesignPoint] | None = None,
) -> Mapping:
    """Load a mapping; re-validates structure and wire budgets.

    ``designs`` may supply custom design points keyed by name; built-in
    points (CA_P, CA_S, CA_64) resolve automatically.
    """
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as error:
        raise CompileError(f"not valid JSON: {error}") from error
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise CompileError(
            f"unsupported mapping format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    design_name = payload.get("design")
    catalogue = {**_BUILTIN_DESIGNS, **(designs or {})}
    if design_name not in catalogue:
        raise CompileError(
            f"unknown design {design_name!r}; known: {', '.join(catalogue)}"
        )
    design = catalogue[design_name]
    automaton = from_anml(payload["automaton_anml"])

    ste_lists = []
    ways = []
    seen = set()
    for entry in payload.get("partitions", []):
        index, ste_ids = int(entry["index"]), list(entry["stes"])
        if index != len(ste_lists):
            raise CompileError(
                f"partition indices must be dense; got {index} "
                f"at position {len(ste_lists)}"
            )
        if len(ste_ids) > design.partition_size:
            raise CompileError(
                f"partition {index} holds {len(ste_ids)} "
                f"STEs > partition size {design.partition_size}"
            )
        for ste_id in ste_ids:
            if ste_id in seen:
                raise CompileError(f"STE {ste_id!r} mapped twice")
            if ste_id not in automaton:
                raise CompileError(f"placed STE {ste_id!r} not in automaton")
            seen.add(ste_id)
        ste_lists.append(ste_ids)
        ways.append(int(entry["way"]))
    missing = set(automaton.ste_ids()) - seen
    if missing:
        raise CompileError(
            f"{len(missing)} automaton state(s) have no placement, e.g. "
            f"{sorted(missing)[0]!r}"
        )
    part, slot = placement_arrays(automaton, ste_lists)
    ways = np.asarray(ways, dtype=np.int32)
    mapping = Mapping(design, automaton, part, slot, ways)
    check(mapping)
    return mapping
