import hashlib
import json
import multiprocessing
import os
import shutil
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from chainsentry import pipeline
from chainsentry.chain import load_labels
from chainsentry.errors import ConfigError, DataError, NotFoundError
from chainsentry.pipeline import (STAGES, PipelineConfig, SequenceContext, load_config,
                                  read_predictions, run_pipeline,
                                  stage_features, stage_ingest, stage_paths,
                                  stage_eval, stage_predict, stage_select, stage_segment,
                                  stage_synth, stage_train, explain_address)

SMALL = {
    "seed": 5,
    "scenario": {"specs": [
        {"kind": "hack", "count": 3},
        {"kind": "exchange", "count": 12},
        {"kind": "merchant", "count": 8},
        {"kind": "gambling", "count": 6},
    ], "noise_level": 0.3},
    "selection": {"runs_per_round": 4, "max_rounds": 3},
    "catalogs": {"k_status": 6, "k_action": 6},
    "gbt": {"n_rounds": 30},
    "intention": {"epochs": 4, "batch_size": 16},
}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    cfg = load_config(SMALL)
    run_pipeline(cfg, out)
    return cfg, out


def test_config_defaults_match_contract():
    cfg = PipelineConfig()
    assert cfg.paths.lt_threshold == 0.5
    assert cfg.paths.lt_span_days == 7.0
    assert cfg.paths.st_threshold == 0.01
    assert cfg.paths.st_span_days == 1.0
    assert cfg.hours == 24
    assert cfg.selection.theta_c == 0.5
    assert cfg.segmentation.theta_s == 0.5
    assert cfg.segmentation.delta == 1e-8
    assert cfg.gbt.n_rounds == 200 and cfg.gbt.max_depth == 4
    assert cfg.gbt.learning_rate == 0.1 and cfg.gbt.reg_lambda == 1.0
    icfg = cfg.intention
    assert (icfg.d_e, icfg.d_z, icfg.d_h) == (16, 3, 32)
    assert icfg.epochs == 50 and icfg.batch_size == 64
    assert icfg.death_eps == 0.01


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config({"bogus_section": {}})
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config({"paths": {"lt_threshold": 0.5, "typo": 1}})


def test_intention_section_is_checked_at_load_time():
    with pytest.raises(ConfigError, match="death_eps"):
        load_config({"intention": {"death_eps": 0.7}})
    with pytest.raises(ConfigError, match="unknown keys.*seed"):
        load_config({"intention": {"seed": 1}})


def test_unknown_stage_is_refused_before_any_stage_runs(tmp_path):
    with pytest.raises(ConfigError, match="unknown stage 'bogus'"):
        run_pipeline(load_config(SMALL), tmp_path, stages=("synth", "bogus"))
    assert not (tmp_path / "transactions.jsonl").exists()


def test_stage_artifacts_exist(small_run):
    _, out = small_run
    for name in ("transactions.jsonl", "labels.csv", "scenario.json",
                 "ingest_report.json", "featurespec.json", "split.json",
                 "plan.json", "catalog_status.json", "catalog_action.json",
                 "gbt_status.json", "gbt_action.json", "intention_model.bin",
                 "predictions.csv", "eval_report.json",
                 "eval_report.csv", "survival_curves.csv", "manifest.json"):
        assert (out / name).exists(), name
    assert not (out / "intention_model.json").exists()
    assert (out / "features" / "features.csv").exists()
    assert (out / "features" / "schema.json").exists()
    assert (out / "paths").is_dir()
    assert not (out / "intention_checkpoint.bin").exists()


def test_predictions_schema(small_run):
    _, out = small_run
    header = (out / "predictions.csv").read_text().splitlines()[0]
    assert header == ("address,t_index,p_malicious,survival,alpha_S,alpha_A,"
                      "alpha_I,intention_index")
    addresses, p, s, ii = read_predictions(out / "predictions.csv")
    assert p.shape[1] == 24
    assert ((p >= 0) & (p <= 1)).all()
    assert ((s > 0) & (s <= 1)).all()
    assert (np.diff(s, axis=1) <= 1e-12).all()
    assert ii.min() >= 1 and ii.max() <= 8


def test_eval_report_sections(small_run):
    _, out = small_run
    payload = json.loads((out / "eval_report.json").read_text())
    assert set(payload) >= {"all", "train", "holdout"}
    for section in payload.values():
        assert 0.0 <= section["f1_early"] <= 1.0
        assert len(section["per_step"]["f1"]) == 24


def test_missing_artifact_names_stage(tmp_path):
    cfg = load_config(SMALL)
    with pytest.raises(DataError, match="run the 'synth' stage"):
        stage_ingest(cfg, tmp_path)
    stage_synth(cfg, tmp_path)
    with pytest.raises(DataError, match="run the 'features' stage"):
        stage_select(cfg, tmp_path)
    stage_features(cfg, tmp_path)
    with pytest.raises(DataError, match="run the 'select' stage"):
        stage_segment(cfg, tmp_path)


def test_stage_rerun_is_stable(small_run):
    cfg, out = small_run
    before = (out / "predictions.csv").read_bytes()
    stage_predict(cfg, out)
    assert (out / "predictions.csv").read_bytes() == before


def test_explain_output(small_run):
    cfg, out = small_run
    labels = (out / "labels.csv").read_text().splitlines()[1:]
    hack = next(l.split(",")[0] for l in labels if l.endswith(",1"))
    text = explain_address(cfg, out, hack)
    assert "status sequence (hourly):" in text
    assert "intention motif:" in text
    assert "survival trace:" in text
    assert (out / f"explain_{hack}.txt").exists()


def test_explain_accepts_a_str_out_dir(small_run):
    cfg, out = small_run
    address = sorted(load_labels(out / "labels.csv"))[0]
    assert explain_address(cfg, str(out), address) == explain_address(cfg, out, address)


def test_explain_counts_path_sets_without_the_paths_stage(small_run, tmp_path):
    cfg, out = small_run
    bare = tmp_path / "bare"
    shutil.copytree(out, bare, ignore=shutil.ignore_patterns("paths", "explain_*"))
    for address in sorted(load_labels(out / "labels.csv")):
        dump = out / "paths" / f"{address}.jsonl"
        counts = {}
        for line in dump.read_text().splitlines():
            obj = json.loads(line)
            key = f"{obj['horizon']}-{obj['direction']}"
            counts[key] = counts.get(key, 0) + 1
        want = "path sets at end of window: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items()))
        text = explain_address(cfg, bare, address)
        assert text.splitlines()[-1] == want
        assert text == explain_address(cfg, out, address)


def test_explain_agrees_with_predictions(small_run):
    # predict runs the network in chunks of batch_size addresses, explain on
    # one address; a row must not depend on the chunk it ran in.
    cfg, out = small_run
    rows: dict[str, list[tuple[float, float]]] = {}
    with open(out / "predictions.csv") as fh:
        fh.readline()
        for line in fh:
            parts = line.split(",")
            rows.setdefault(parts[0], []).append((float(parts[3]), float(parts[2])))
    values = np.array(list(rows.values())).ravel()
    assert np.array_equal(values.astype(np.float32), values)  # computed in float32
    assert len(rows) > cfg.intention.batch_size
    for address, want in rows.items():
        explain_address(cfg, out, address)
        trace = [line for line in (out / f"explain_{address}.txt").read_text().splitlines()
                 if line.startswith("  hour ")]
        assert trace == [f"  hour {t:2d}: S={s:.6f} p_malicious={p:.6f}"
                         for t, (s, p) in enumerate(want, start=1)], address


def test_eval_refuses_predictions_for_an_unlabelled_address(small_run, tmp_path):
    cfg, out = small_run
    stale = tmp_path / "stale"
    shutil.copytree(out, stale)
    lines = (stale / "labels.csv").read_text().splitlines(keepends=True)
    dropped = lines.pop(1).split(",")[0]
    (stale / "labels.csv").write_text("".join(lines))
    with pytest.raises(DataError, match=f"{dropped}.*re-run predict"):
        stage_eval(cfg, stale)


def test_sequence_context_roundtrip(small_run):
    cfg, out = small_run
    ctx = SequenceContext.load(out)
    assert ctx.plan.hours == 24
    assert ctx.status.centers_ is not None
    seg = ctx.plan.segment_of_hour()
    assert seg.shape == (24,)


def test_explain_unknown_address_not_found(small_run):
    cfg, out = small_run
    with pytest.raises(NotFoundError, match="no feature rows"):
        explain_address(cfg, out, "nobody")


def test_manifest_lists_every_path_dump(tmp_path):
    cfg = load_config({"seed": 3, "scenario": {"specs": [
        {"kind": "exchange", "count": 40}, {"kind": "merchant", "count": 15},
    ]}})
    stage_synth(cfg, tmp_path)
    stage_paths(cfg, tmp_path)
    dumps = sorted(p.name for p in (tmp_path / "paths").glob("*.jsonl"))
    assert len(dumps) > 50
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["paths"]["outputs"]) == dumps


def test_manifest_tracks_hashes(small_run):
    _, out = small_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert "features" in manifest and "train" in manifest
    h = manifest["features"]["outputs"]["features.csv"]
    want = hashlib.sha256((out / "features" / "features.csv").read_bytes()).hexdigest()
    assert h == want


def test_parallel_features_match_serial(tmp_path):
    cfg = load_config(SMALL)
    stage_synth(cfg, tmp_path)
    stage_features(cfg, tmp_path, jobs=1)
    serial = (tmp_path / "features" / "features.csv").read_bytes()
    stage_features(cfg, tmp_path, jobs=2)
    parallel = (tmp_path / "features" / "features.csv").read_bytes()
    assert serial == parallel


def _synth_small(out):
    cfg = load_config(SMALL)
    stage_synth(cfg, out)
    return cfg


def test_ghost_address_is_skipped_through_eval(tmp_path):
    cfg = _synth_small(tmp_path)
    n_real = len(load_labels(tmp_path / "labels.csv"))
    with open(tmp_path / "labels.csv", "a", encoding="utf-8") as fh:
        fh.write("ghost_addr,1\n")
    run_pipeline(cfg, tmp_path, stages=STAGES[1:])
    report = json.loads((tmp_path / "features" / "features_report.json").read_text())
    assert report["featurized"] == n_real
    assert report["skipped"] == [{"address": "ghost_addr", "reason": "no transactions"}]
    assert report["truncated"] == []
    # The paths stage skips the same address.
    assert sorted(p.stem for p in (tmp_path / "paths").glob("*.jsonl")) == sorted(
        a for a in load_labels(tmp_path / "labels.csv") if a != "ghost_addr")
    addresses, p, _, _ = read_predictions(tmp_path / "predictions.csv")
    assert len(addresses) == n_real and "ghost_addr" not in addresses
    assert json.loads((tmp_path / "eval_report.json").read_text())["all"]["f1_early"] >= 0.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "features_report.json" in manifest["features"]["outputs"]


def test_sums_and_times_outside_int64_skip_the_address(tmp_path):
    cfg = _synth_small(tmp_path)
    n_real = len(load_labels(tmp_path / "labels.csv"))
    lines = [json.dumps({"txid": f"huge{k}", "time": 1_600_000_000 + k, "inputs": [],
                         "outputs": [{"addr": "huge_addr", "amount": 2**62}]})
             for k in range(3)]
    lines.append(json.dumps({"txid": "late", "time": 2**63 - 10, "inputs": [],
                             "outputs": [{"addr": "late_addr", "amount": 1}]}))
    lines.append(json.dumps({"txid": "wide", "time": 1_600_000_000, "inputs": [],
                             "outputs": [{"addr": "wide_addr", "amount": 10**20}]}))
    with open(tmp_path / "transactions.jsonl", "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(tmp_path / "labels.csv", "a", encoding="utf-8") as fh:
        fh.write("huge_addr,1\nlate_addr,0\nwide_addr,1\n")
    run_pipeline(cfg, tmp_path, stages=("ingest", "paths", "features"))
    ingest = json.loads((tmp_path / "ingest_report.json").read_text())
    assert ingest["rejected_lines"] == 1
    assert ingest["line_errors"][0]["reason"] == "output total exceeds 2**63 - 1"
    report = json.loads((tmp_path / "features" / "features_report.json").read_text())
    assert report["featurized"] == n_real
    assert report["skipped"] == [
        {"address": "huge_addr", "reason": "amounts sum past 2**63 - 1"},
        {"address": "late_addr", "reason": "feature window ends past 2**63 - 1"},
        {"address": "wide_addr", "reason": "no transactions"},
    ]
    assert not any((tmp_path / "paths" / f"{a}.jsonl").exists()
                   for a in ("huge_addr", "late_addr", "wide_addr"))
    text = (tmp_path / "features" / "features.csv").read_text()
    assert "huge_addr" not in text and "e+18" not in text


def test_features_fail_only_when_no_address_is_left(tmp_path):
    cfg = _synth_small(tmp_path)
    stage_features(cfg, tmp_path)
    path = tmp_path / "features" / "features.csv"
    old = path.read_bytes()
    (tmp_path / "labels.csv").write_text("address,label\nghost_a,1\nghost_b,0\n")
    with pytest.raises(DataError, match="none of the 2 labeled addresses"):
        stage_features(cfg, tmp_path)
    assert path.read_bytes() == old


@pytest.mark.parametrize("jobs", [1, 2])
def test_failure_mid_stream_keeps_the_old_features(tmp_path, monkeypatch, jobs):
    cfg = _synth_small(tmp_path)
    stage_features(cfg, tmp_path)
    features_dir = tmp_path / "features"
    old = (features_dir / "features.csv").read_bytes()
    files = sorted(p.name for p in features_dir.iterdir())
    third = sorted(load_labels(tmp_path / "labels.csv"))[2]
    real = pipeline.feature_timeline

    def failing(store, address, *args):
        if address == third:
            raise RuntimeError(f"timeline of {address} failed")
        return real(store, address, *args)

    monkeypatch.setattr(pipeline, "feature_timeline", failing)
    with pytest.raises(RuntimeError, match=f"timeline of {third} failed"):
        stage_features(cfg, tmp_path, jobs=jobs)
    assert (features_dir / "features.csv").read_bytes() == old
    assert sorted(p.name for p in features_dir.iterdir()) == files
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_features_stage_holds_at_most_two_timelines(tmp_path, monkeypatch, jobs):
    cfg = _synth_small(tmp_path)
    n = len(load_labels(tmp_path / "labels.csv"))
    alive, peak, seen = [0], [0], [0]
    real_write = pipeline.write_feature_csv

    def released():
        alive[0] -= 1

    def watched(path, timelines):
        def stream():
            for tl in timelines:
                alive[0] += 1
                seen[0] += 1
                peak[0] = max(peak[0], alive[0])
                weakref.finalize(tl.matrix, released)
                yield tl
        real_write(path, stream())

    monkeypatch.setattr(pipeline, "write_feature_csv", watched)
    stage_features(cfg, tmp_path, jobs=jobs)
    assert seen[0] == n and peak[0] <= 2
    assert multiprocessing.active_children() == []


def _resynth(small_run, tmp_path):
    cfg, out = small_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    cfg = load_config({**SMALL, "seed": 8})
    stage_synth(cfg, copy)
    return cfg, copy


def test_new_transactions_make_old_features_stale(small_run, tmp_path):
    cfg, copy = _resynth(small_run, tmp_path)
    with pytest.raises(DataError, match="features.csv is stale.*re-run the 'features' stage"):
        stage_train(cfg, copy)


def test_new_features_make_the_old_selection_stale(small_run, tmp_path):
    cfg, copy = _resynth(small_run, tmp_path)
    stage_features(cfg, copy)
    with pytest.raises(DataError, match="re-run the 'select' stage"):
        stage_train(cfg, copy)


_AUDIT = {"on": False, "reads": set(), "writes": set()}


def _audit(event, args):
    if not _AUDIT["on"]:
        return
    if event == "open":
        path, mode, flags = args
        # Hashing for the manifest is not a read by the stage.
        if isinstance(path, int) or sys._getframe(1).f_code is pipeline._sha256.__code__:
            return
        reading = ("r" in mode and "+" not in mode) if mode else \
            flags & os.O_ACCMODE == os.O_RDONLY
        if reading:
            _AUDIT["reads"].add(Path(os.fsdecode(path)).resolve())
    elif event == "os.rename":
        _AUDIT["writes"].add(Path(os.fsdecode(args[1])).resolve())


def test_each_stage_reads_and_writes_what_its_manifest_entry_records(tmp_path):
    """The stage table is what the manifest records, so a stage that opens a
    file its row does not list, or renames a file into place that its row
    does not list, fails here."""
    sys.addaudithook(_audit)
    cfg = load_config(SMALL)
    out = tmp_path.resolve()
    for name in STAGES:
        _AUDIT.update(reads=set(), writes=set())
        _AUDIT["on"] = True
        try:
            getattr(pipeline, f"stage_{name}")(cfg, out)
        finally:
            _AUDIT["on"] = False
        entry = json.loads((out / "manifest.json").read_text())[name]
        reads = {p.name for p in _AUDIT["reads"]
                 if p.is_relative_to(out) and p.name != "manifest.json"}
        writes = {p.name for p in _AUDIT["writes"]
                  if p.is_relative_to(out) and p.name != "manifest.json"}
        assert reads == set(entry["inputs"]), name
        assert writes == set(entry["outputs"]), name
