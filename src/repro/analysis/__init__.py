"""Analysis utilities: crossovers, savings, artifact diffs, ASCII plots."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "artifacts": ("ArtifactDiff", "compare_artifacts", "summarize_artifact"),
    "ascii_plot": ("AsciiPlot", "quick_plot", "sparkline"),
    "crossover": ("advantage_region", "elementwise_min",
                  "interpolated_crossing", "peak_advantage"),
    "sso": ("DBI_DC_IDLE_FIRST_BEAT_BOUND", "DBI_DC_TOGGLE_BOUND",
            "DEFAULT_LINE_IMPEDANCE_OHMS", "SsoStatistics", "sso_comparison",
            "sso_of_scheme", "sso_of_scheme_batch", "sso_of_words",
            "sso_of_words_batch"),
    "statistics": ("MeanEstimate", "estimate_mean", "per_burst_costs",
                   "samples_for_precision", "scheme_cost_estimate"),
    "savings": ("SavingsRecord", "savings_matrix",
                "savings_vs_best_conventional", "savings_vs_reference"),
})
