"""Frozen object-walk operand-temporary insertion, kept as a
differential-testing oracle.

This is the per-instruction object walk of ``tilecolor._add_temp_nodes``
as it shipped while the arena-indexed walk had a fallback: it visits
every instruction of the tile's own blocks and filters live sets by
name.  ``test_arena_analysis.py`` drives the live function and this
oracle with identical inputs during real allocations and asserts the
same temp nodes, edge sets and peer index.  The per-instruction live
sets come from the string-set liveness oracle
(:func:`repro.analysis.reference.reference_liveness`), so the oracle
shares no analysis with the arena path.

Not a test module (no ``test_`` prefix); imported as
``tests._temp_nodes_oracle``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.reference import ReferenceLiveness
from repro.core.info import FunctionContext
from repro.core.tilecolor import _connect_temps, _instr_temps, _record_temps
from repro.graph.interference import InterferenceGraph


def oracle_add_temp_nodes(
    ctx: FunctionContext,
    liveness: ReferenceLiveness,
    own_labels: Iterable[str],
    graph: InterferenceGraph,
    new_vars: Set[str],
    all_spilled: Set[str],
    temps_by_uid: Dict[int, Tuple[List[str], List[str]]],
) -> Set[str]:
    """``_add_temp_nodes`` by walking ``Instr`` objects (see module
    docstring); *liveness* is the reference liveness of ``ctx.fn``."""
    added: Set[str] = set()
    if not new_vars:
        return added
    node_set = set(graph.nodes())
    for label in own_labels:
        block = ctx.fn.blocks[label]
        live_in = liveness.instr_live_in(label)
        live_out = liveness.instr_live_out(label)
        for idx, instr in enumerate(block.instrs):
            use_temps, def_temps = _instr_temps(instr, new_vars)
            if not use_temps and not def_temps:
                continue
            peers = temps_by_uid.get(instr.uid)
            live_in_regs = {
                v for v in live_in[idx] if v in node_set and v not in all_spilled
            }
            live_out_regs = {
                v for v in live_out[idx] if v in node_set and v not in all_spilled
            }
            _connect_temps(
                graph, added, use_temps, live_in_regs,
                peers[0] if peers else (),
            )
            _connect_temps(
                graph, added, def_temps, live_out_regs,
                peers[1] if peers else (),
            )
            _record_temps(temps_by_uid, instr.uid, use_temps, def_temps)
    return added
