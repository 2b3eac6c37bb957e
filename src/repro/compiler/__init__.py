"""The Cache Automaton compiler: mapping, constraints, bitstream."""

from repro.compiler.bitstream import Bitstream, generate
from repro.compiler.cache import CacheStats, CompileCache, cache_key
from repro.compiler.constraints import ConstraintReport, analyse, check
from repro.compiler.mapping import Compiler, MappedPartition, Mapping
from repro.compiler.serialize import mapping_from_json, mapping_to_json
from repro.errors import CompileError


def compile_automaton(automaton, design, **kwargs) -> Mapping:
    """Compile ``automaton`` onto ``design`` and validate wire budgets."""
    mapping = Compiler(design, **kwargs).compile(automaton)
    check(mapping)
    return mapping


def compile_space_optimized(automaton, design, **kwargs) -> Mapping:
    """Compile the best *routable* space-optimised variant of ``automaton``.

    Redundancy removal trades connected-component count for connectivity:
    fully merged automata (prefix + suffix) are the smallest but can
    exceed the interconnect's wire budget — edit-distance lattices are
    the canonical offender (and indeed the paper's Levenshtein/Hamming/
    RandomForest rows show no space-optimisation benefit).  This helper
    compiles the variant ladder — full merge, prefix-merge only, baseline
    — and returns the smallest-footprint mapping that routes.  Merging can
    even *increase* the footprint when it fuses many well-packed small CCs
    into one fragmenting giant without removing many states (Levenshtein),
    so the best routable variant is picked, not merely the first; that
    mirrors how the paper's merge-hostile benchmarks end up with no CA_S
    benefit.
    """
    from repro.automata.optimize import merge_common_prefixes, space_optimize

    best = None
    last_error = None
    for transform in (space_optimize, merge_common_prefixes, lambda a: a):
        variant = transform(automaton)
        try:
            mapping = compile_automaton(variant, design, **kwargs)
        except CompileError as error:
            last_error = error
            continue
        if best is None or mapping.cache_bytes() < best.cache_bytes():
            best = mapping
    if best is None:
        raise last_error
    return best


__all__ = [
    "Bitstream",
    "CacheStats",
    "CompileCache",
    "Compiler",
    "ConstraintReport",
    "MappedPartition",
    "Mapping",
    "analyse",
    "cache_key",
    "check",
    "compile_automaton",
    "compile_space_optimized",
    "generate",
    "mapping_from_json",
    "mapping_to_json",
]
