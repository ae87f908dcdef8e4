"""Artifacts and disk-cache files written by older code keep loading.

``compat/`` holds one artifact per experiment kind and one disk-cache
file per record family, written once by the commit that
``compat/MANIFEST.json`` names and never regenerated since.  Every
artifact must load and re-save to the same canonical JSON, every spec
whose inputs rebuild must re-run to the same output, and every cache
file must decode and re-store to byte-identical content.

The population-backed fixtures were drawn with NumPy.  A seed draws the
same bytes with or without it, so they re-run and match on every
install.  Older NumPy-free runs drew from another stream and tagged
their populations' digests ``py``; such artifacts load render-only.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.analysis.artifacts import canonical_artifact_json
from repro.service.diskcache import DiskActivityCache
from repro.sim.experiments import (
    ReplayResult,
    load_artifact,
    load_fault_artifact,
    load_granularity_artifact,
    load_replay_artifact,
    load_sso_artifact,
    run_experiment,
    run_faults,
    run_granularity,
    run_replay,
    run_sso,
    save_replay_artifact,
)
from repro.workloads.population import OpaquePopulation

COMPAT = pathlib.Path(__file__).resolve().parent / "compat"
MANIFEST = json.loads((COMPAT / "MANIFEST.json").read_text())

#: kind -> (loader, runner, name of the priced output)
KINDS = {
    "experiment": (load_artifact, run_experiment, "series"),
    "replay": (load_replay_artifact, run_replay, "series"),
    "faults": (load_fault_artifact, run_faults, "series"),
    "granularity": (load_granularity_artifact, run_granularity, "rows"),
    "sso": (load_sso_artifact, run_sso, "series"),
}

#: The one artifact persisted without its trace (payload over 64 KiB).
RENDER_ONLY = "replay_render_only.json"


def _raw(name: str) -> dict:
    return json.loads((COMPAT / "artifacts" / name).read_text())


def _load(name: str):
    kind = _raw(name).get("kind", "experiment")
    return kind, KINDS[kind][0](COMPAT / "artifacts" / name)


def _save(result, path) -> None:
    if isinstance(result, ReplayResult):
        save_replay_artifact(result, path)
    else:
        result.save(path)


def _has_inputs(spec) -> bool:
    population = getattr(spec, "population", None)
    return (not isinstance(population, OpaquePopulation)
            and not getattr(spec, "_render_only", False))


def test_manifest_covers_every_kind():
    kinds = {_raw(name).get("kind", "experiment")
             for name in MANIFEST["artifacts"]}
    assert kinds == set(KINDS)
    assert set(MANIFEST["cache_files"]) == {
        "activity", "replay", "replay-segments", "fault", "sso"}


@pytest.mark.parametrize("name", MANIFEST["artifacts"])
def test_artifact_resaves_canonically(name, tmp_path):
    __, loaded = _load(name)
    path = tmp_path / name
    _save(loaded, path)
    assert (canonical_artifact_json(json.loads(path.read_text()))
            == canonical_artifact_json(_raw(name)))


@pytest.mark.parametrize("name", MANIFEST["artifacts"])
def test_artifact_reruns_or_refuses(name):
    kind, loaded = _load(name)
    __, run, output = KINDS[kind]
    expected = name != RENDER_ONLY
    assert _has_inputs(loaded.spec) == expected
    if not expected:
        with pytest.raises(RuntimeError):
            run(loaded.spec)
        return
    rerun = run(loaded.spec)
    assert getattr(rerun, output) == getattr(loaded, output)
    assert rerun.totals == loaded.totals


#: The fixtures drawn from a random population, by their seed.
RANDOM_POPULATION = {"alpha.json": 11, "faults.json": 17,
                     "granularity.json": 17, "sso.json": 17}


@pytest.mark.parametrize("negative_seed", (False, True))
@pytest.mark.parametrize("name", sorted(RANDOM_POPULATION))
def test_py_tagged_artifact_loads_render_only(name, negative_seed, tmp_path):
    """An artifact whose random population an older NumPy-free run drew
    (digest tag ``py``, and possibly a negative seed) keeps loading and
    re-saving, but refuses to re-run, on every install."""
    seed = -1 if negative_seed else RANDOM_POPULATION[name]
    text = (COMPAT / "artifacts" / name).read_text()
    old = f"seed={RANDOM_POPULATION[name]}:np"
    assert old in text
    raw = json.loads(text.replace(old, f"seed={seed}:py"))
    raw["spec"]["population"]["seed"] = seed
    source = tmp_path / "py" / name
    source.parent.mkdir()
    source.write_text(json.dumps(raw))
    kind = raw.get("kind", "experiment")
    loader, run, __ = KINDS[kind]
    loaded = loader(source)
    assert not _has_inputs(loaded.spec)
    with pytest.raises(RuntimeError):
        run(loaded.spec)
    _save(loaded, tmp_path / name)
    assert (canonical_artifact_json(json.loads((tmp_path / name).read_text()))
            == canonical_artifact_json(raw))


#: Malformed copies of a fixture: each must be refused by name.
MUTATIONS = {
    "no-spec": lambda raw: raw.pop("spec"),
    "spec-string": lambda raw: raw.update(spec="x"),
    "spec-empty": lambda raw: raw.update(spec={}),
    "totals-string": lambda raw: raw.update(totals="x"),
    "record-string": lambda raw: raw["totals"].update(
        {next(iter(raw["totals"])): "x"}),
    "provenance-string": lambda raw: raw.update(provenance="x"),
    "outputs-string": lambda raw: raw.update(
        dict.fromkeys(("series", "point_keys", "rows") & raw.keys(), "x")),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", MANIFEST["artifacts"])
def test_malformed_artifact_is_refused_by_name(name, mutation, tmp_path):
    """A copy with a field dropped or of the wrong JSON type raises a
    ValueError naming the file and the kind, never a bare
    KeyError/TypeError/AttributeError (nor loads, only to crash when it
    renders)."""
    raw = _raw(name)
    MUTATIONS[mutation](raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    kind = raw.get("kind", "experiment")
    with pytest.raises(ValueError, match=kind) as caught:
        KINDS[kind][0](path)
    assert str(path) in str(caught.value)


@pytest.mark.parametrize("family", sorted(MANIFEST["cache_files"]))
def test_cache_file_restores_byte_identical(family, tmp_path):
    name = MANIFEST["cache_files"][family]
    source = tmp_path / "old"
    source.mkdir()
    # Read from a copy: a reader may quarantine what it cannot parse.
    shutil.copy(COMPAT / "cache" / name, source / name)
    key = json.loads((source / name).read_text())["key"]
    totals = DiskActivityCache(source).get(key)
    target = DiskActivityCache(tmp_path / "new")
    target.store(key, totals)
    assert ((tmp_path / "new" / name).read_bytes()
            == (COMPAT / "cache" / name).read_bytes())
