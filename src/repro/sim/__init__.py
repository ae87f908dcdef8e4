"""Simulation harness: runners, experiment engine, sweeps and reporting."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "experiments": ("ActivityCache", "ActivityTotals", "ExperimentResult",
                    "ExperimentSpec", "FaultResult", "FaultSpec",
                    "GranularityResult", "GranularitySpec", "GridPoint",
                    "ReplayPoint", "ReplayResult", "ReplaySpec",
                    "ReplayTotals", "SchemeSlot", "SsoResult", "SsoSpec",
                    "alpha_experiment", "fault_experiment",
                    "granularity_experiment", "interface_replay_experiment",
                    "load_artifact", "load_experiment", "load_fault_artifact",
                    "load_granularity_artifact", "load_sso_artifact",
                    "population_activity", "rate_experiment",
                    "run_experiment", "run_faults", "run_granularity",
                    "run_replay", "run_sso", "save_artifact",
                    "sso_experiment"),
    "metrics": ("EvaluationResult", "SchemeMetrics"),
    "runner": ("evaluate", "evaluate_named"),
    "report": ("csv_table", "format_alpha_sweep", "format_data_rate_sweep",
               "format_evaluation", "format_load_sweep", "format_provenance",
               "markdown_table", "savings_summary"),
    "sweep": ("AlphaSweepResult", "DataRateSweepResult", "LoadSweepResult",
              "alpha_sweep", "collect_activity", "data_rate_sweep",
              "load_sweep", "to_alpha_result", "to_figure_result",
              "to_load_result", "to_rate_result"),
})
