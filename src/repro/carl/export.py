"""Export helpers for relational causal graphs and unit tables.

The grounded causal graph can be large; these helpers render it (or the
attribute-level summary graph) to Graphviz DOT for inspection, and convert a
unit table back into a :class:`~repro.db.table.Table` so it can be exported
to CSV with the rest of the database.
"""

from __future__ import annotations

from typing import Callable

from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.carl.model import RelationalCausalModel
from repro.carl.unit_table import UnitTable
from repro.db.table import Table


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def grounded_graph_to_dot(
    graph: GroundedCausalGraph,
    highlight: Callable[[GroundedAttribute], bool] | None = None,
    max_nodes: int | None = None,
) -> str:
    """Render the grounded causal graph (Figure 4/5-style) as Graphviz DOT.

    Aggregate nodes are drawn as boxes, ordinary grounded attributes as
    ellipses; ``highlight`` marks nodes to fill (e.g. treatment and response
    nodes of a query).  ``max_nodes`` truncates very large graphs — a comment
    records how many nodes were omitted.
    """
    nodes = graph.nodes
    omitted = 0
    if max_nodes is not None and len(nodes) > max_nodes:
        omitted = len(nodes) - max_nodes
        nodes = nodes[:max_nodes]
    kept = set(nodes)

    lines = ["digraph grounded_causal_graph {", "  rankdir=BT;"]
    if omitted:
        lines.append(f"  // {omitted} nodes omitted (max_nodes={max_nodes})")
    for node in nodes:
        shape = "box" if graph.is_aggregate(node) else "ellipse"
        style = ""
        if highlight is not None and highlight(node):
            style = ', style=filled, fillcolor="lightblue"'
        lines.append(f"  {_quote(str(node))} [shape={shape}{style}];")
    for parent, child in graph.edges:
        if parent in kept and child in kept:
            lines.append(f"  {_quote(str(parent))} -> {_quote(str(child))};")
    lines.append("}")
    return "\n".join(lines)


def attribute_graph_to_dot(model: RelationalCausalModel) -> str:
    """Render the attribute-level dependency graph (Figure 3-style) as DOT."""
    names = dict.fromkeys((*model.schema.attribute_names, *model.derived_attributes))
    lines = ["digraph attribute_dependencies {", "  rankdir=BT;"]
    for name in names:
        shape = "box" if model.is_derived(name) else "ellipse"
        peripheries = 1 if model.is_observed(name) else 2
        lines.append(f"  {_quote(name)} [shape={shape}, peripheries={peripheries}];")
    for parent, child in model.attribute_dependency_edges():
        lines.append(f"  {_quote(parent)} -> {_quote(child)};")
    lines.append("}")
    return "\n".join(lines)


def unit_table_to_table(unit_table: UnitTable, name: str = "unit_table") -> Table:
    """Convert a :class:`UnitTable` into a relational :class:`Table`.

    The unit key is rendered as a single string column; the remaining columns
    are the outcome, the treatment, the peer-treatment embedding and the
    embedded covariates, all as floats.  The result can be added to a
    :class:`~repro.db.database.Database` and exported to CSV.
    """
    rows = []
    for row in unit_table.to_rows():
        flat = {"unit": "|".join(str(part) for part in row.pop("unit"))}
        flat.update({key: float(value) for key, value in row.items()})
        rows.append(flat)
    return Table.from_rows(name, rows)
