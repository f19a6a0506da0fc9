"""Result analysis: aggregation statistics, comparisons, terminal charts."""

from repro.analysis.charts import bar_chart, grouped_bar_chart, series_table
from repro.analysis.compare import Comparison, compare, comparison_table
from repro.analysis.stats import Aggregate, aggregate

__all__ = [
    "bar_chart",
    "grouped_bar_chart",
    "series_table",
    "Comparison",
    "compare",
    "comparison_table",
    "Aggregate",
    "aggregate",
]
