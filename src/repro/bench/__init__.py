"""Benchmark harness: the paper's tables and figures as experiments.

Public surface::

    table2_rows .. table6_rows, figure1_rows, figure2_rows
    measure, external_budget
    render_table, render_markdown, print_table

The ablation rows of the package's own engines are built by the
``benchmarks/bench_ablation_*.py`` script that runs each one.
"""

from repro.bench.harness import (
    Measured,
    external_budget,
    figure1_rows,
    figure2_rows,
    measure,
    print_table,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
    table6_rows,
    TABLE_HEADERS,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_TABLE6,
)
from repro.bench.tables import format_number, render_markdown, render_table

__all__ = [
    "Measured",
    "measure",
    "external_budget",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "table6_rows",
    "figure1_rows",
    "figure2_rows",
    "print_table",
    "TABLE_HEADERS",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "PAPER_TABLE6",
    "render_table",
    "render_markdown",
    "format_number",
]
