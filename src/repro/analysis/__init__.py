"""Result analysis: aggregation statistics and terminal charts."""

from repro.analysis.charts import bar_chart, grouped_bar_chart, series_table
from repro.analysis.stats import Aggregate, aggregate

__all__ = [
    "bar_chart",
    "grouped_bar_chart",
    "series_table",
    "Aggregate",
    "aggregate",
]
