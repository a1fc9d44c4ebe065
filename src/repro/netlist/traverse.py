"""Netlist traversal: classification, topological order, levelization.

These helpers operate on *flat* modules (library-cell instances only); pass
hierarchical designs through :meth:`repro.netlist.core.Design.flatten`
first.  A submodule instance encountered here raises
:class:`~repro.errors.NetlistError` rather than silently producing a wrong
order.
"""

from __future__ import annotations

from collections import deque

from ..errors import NetlistError
from ..tech.library import CellKind


def _require_flat(module):
    for inst in module.instances():
        if not inst.is_cell:
            raise NetlistError(
                "module {} is hierarchical (instance {}); flatten first"
                .format(module.name, inst.name)
            )


def combinational_instances(module):
    """Cell instances evaluated combinationally (gates, buffers, isolation,
    clock buffers, ties)."""
    return [
        i
        for i in module.cell_instances()
        if i.cell.is_combinational or i.cell.kind is CellKind.TIE
    ]


def sequential_instances(module):
    """Flip-flop/latch instances."""
    return [
        i
        for i in module.cell_instances()
        if i.cell.kind is CellKind.SEQUENTIAL
    ]


def header_instances(module):
    """Sleep-header instances."""
    return [
        i for i in module.cell_instances() if i.cell.kind is CellKind.HEADER
    ]


def _comb_fanin_counts(module):
    """For each combinational instance, how many of its input nets are driven
    by other combinational instances."""
    comb = combinational_instances(module)
    comb_set = set(id(i) for i in comb)
    counts = {}
    for inst in comb:
        n = 0
        for pin_name in inst.input_pins():
            net = inst.connections.get(pin_name)
            if net is None or net.is_const:
                continue
            driver = net.driver
            if (
                isinstance(driver, tuple)
                and id(driver[0]) in comb_set
            ):
                n += 1
        counts[id(inst)] = n
    return comb, counts


def topological_instances(module):
    """Combinational instances in evaluation (topological) order.

    Sources are input ports, constants and sequential outputs.  Raises
    :class:`NetlistError` when a combinational loop prevents a full order.
    """
    _require_flat(module)
    comb, fanin = _comb_fanin_counts(module)
    ready = deque(i for i in comb if fanin[id(i)] == 0)
    order = []
    comb_set = set(id(i) for i in comb)
    while ready:
        inst = ready.popleft()
        order.append(inst)
        for pin_name in inst.output_pins():
            net = inst.connections.get(pin_name)
            if net is None:
                continue
            for load in net.loads:
                if not isinstance(load, tuple):
                    continue
                sink, _ = load
                if id(sink) in comb_set:
                    fanin[id(sink)] -= 1
                    if fanin[id(sink)] == 0:
                        ready.append(sink)
    if len(order) != len(comb):
        stuck = [i.name for i in comb if fanin[id(i)] > 0][:8]
        raise NetlistError(
            "combinational loop in module {} involving {}".format(
                module.name, ", ".join(stuck)
            )
        )
    return order


def levelize(module, order=None):
    """Map each combinational instance name to its logic level (longest
    distance, in gates, from a source).

    ``order`` reuses a :func:`topological_instances` result the caller
    already holds instead of sorting ``module`` again.
    """
    if order is None:
        order = topological_instances(module)
    levels = {}
    for inst in order:
        level = 0
        for pin_name in inst.input_pins():
            net = inst.connections.get(pin_name)
            if net is None or net.is_const:
                continue
            driver = net.driver
            if isinstance(driver, tuple) and driver[0].name in levels:
                level = max(level, levels[driver[0].name] + 1)
        levels[inst.name] = level
    return levels


def fanout_instances(net):
    """Instances loading ``net`` (ports skipped)."""
    return [load[0] for load in net.loads if isinstance(load, tuple)]


def driver_instance(net):
    """Instance driving ``net`` or ``None`` (port/const driven)."""
    if isinstance(net.driver, tuple):
        return net.driver[0]
    return None


def transitive_fanin(module, nets):
    """All instances in the combinational fan-in cone of ``nets`` (stops at
    sequential elements and ports)."""
    _require_flat(module)
    seen = set()
    result = []
    stack = list(nets)
    while stack:
        net = stack.pop()
        driver = net.driver
        if not isinstance(driver, tuple):
            continue
        inst = driver[0]
        if id(inst) in seen:
            continue
        seen.add(id(inst))
        if inst.cell.kind is CellKind.SEQUENTIAL:
            continue
        result.append(inst)
        for pin_name in inst.input_pins():
            inner = inst.connections.get(pin_name)
            if inner is not None and not inner.is_const:
                stack.append(inner)
    return result
