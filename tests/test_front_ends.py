"""The CLI and the query daemon are two front ends over one spec builder
and one set of defaults.

The same parameters must give canonically identical artifacts through
``repro <command> --out`` and through the daemon's builders plus a run —
at the defaults (so a default changed on one side only fails here) and
at a non-default value of every shared parameter (so a parameter one
side drops fails here).  Replays differ only in the spec's ``name``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.artifacts import canonical_artifact_json
from repro.cli import main
from repro.service.daemon import (replay_spec_from_params,
                                  sweep_spec_from_params)
from repro.sim.experiments import result_to_json, run_experiment, run_replay

#: ``(CLI argv, daemon params)`` of one sweep request each.
SWEEPS = [
    (["sweep-alpha"], {"figure": "alpha"}),
    (["sweep-alpha", "--samples", "300", "--seed", "5", "--points", "9"],
     {"figure": "alpha", "samples": 300, "seed": 5, "points": 9}),
    (["sweep-rate"], {"figure": "rate"}),
    (["sweep-rate", "--samples", "300", "--seed", "5", "--interface",
      "pod12", "--c-load-pf", "2", "--max-gbps", "6"],
     {"figure": "rate", "samples": 300, "seed": 5, "interface": "pod12",
      "c_load_pf": 2.0, "max_gbps": 6}),
    (["sweep-load"], {"figure": "load"}),
    (["sweep-load", "--samples", "300", "--seed", "5", "--interface",
      "pod12", "--loads-pf", "1", "5", "--max-gbps", "4"],
     {"figure": "load", "samples": 300, "seed": 5, "interface": "pod12",
      "loads_pf": [1.0, 5.0], "max_gbps": 4}),
]

#: ``(CLI argv, daemon params)`` of one replay request each.
REPLAYS = [
    (["ctrl"], {}),
    (["ctrl", "--bursts", "300", "--seed", "5", "--interface", "pod135",
      "lvstl11", "--data-rate-gbps", "6", "--c-load-pf", "2",
      "--channels", "4", "--lanes", "2", "--window", "8",
      "--line-bytes", "32"],
     {"bursts": 300, "seed": 5, "interfaces": ["pod135", "lvstl11"],
      "data_rate_gbps": 6.0, "c_load_pf": 2.0, "channels": 4, "lanes": 2,
      "window": 8, "line_bytes": 32}),
]


def cli_artifact(argv, tmp_path, capsys):
    path = tmp_path / "artifact.json"
    assert main([*argv, "--out", str(path)]) == 0
    capsys.readouterr()
    return json.loads(path.read_text())


def without_name(artifact):
    spec = {key: value for key, value in artifact["spec"].items()
            if key != "name"}
    return canonical_artifact_json(dict(artifact, spec=spec))


@pytest.mark.parametrize("argv, params", SWEEPS,
                         ids=[" ".join(argv) for argv, __ in SWEEPS])
def test_sweep_artifacts_agree(argv, params, tmp_path, capsys):
    served = result_to_json(run_experiment(sweep_spec_from_params(params)))
    assert (canonical_artifact_json(cli_artifact(argv, tmp_path, capsys))
            == canonical_artifact_json(served))


@pytest.mark.parametrize("argv, params", REPLAYS,
                         ids=[" ".join(argv) for argv, __ in REPLAYS])
def test_replay_artifacts_agree_but_for_the_name(argv, params, tmp_path,
                                                 capsys):
    served = result_to_json(run_replay(replay_spec_from_params(params)))
    from_cli = cli_artifact(argv, tmp_path, capsys)
    assert from_cli["spec"]["name"] == "cli-ctrl-replay"
    assert served["spec"]["name"] == "service-replay"
    assert without_name(from_cli) == without_name(served)
