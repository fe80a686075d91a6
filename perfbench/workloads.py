"""The benchmark's workloads: set-up, one timed pass, and correctness checks.

Each workload drives the program only through ``chainsentry.pipeline``
(``run_pipeline`` one stage at a time, and ``explain_address``), always via
the module attribute, so the traced run's wrappers see every call.  Inputs
come from the workload seed alone.  Checks run outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chainsentry import chain, features, paths, pipeline, synth

import deepgen
from spans import tail_percentile

HOURS = 24


@dataclass
class PassResult:
    stage_s: dict[str, float] = field(default_factory=dict)
    stage_cpu_s: dict[str, float] = field(default_factory=dict)
    explain_ms: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values()) + sum(self.explain_ms) / 1e3

    @property
    def cpu_s(self) -> float:
        return sum(self.stage_cpu_s.values())


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def merge(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def _timed_call(result: PassResult, key: str, fn, *args, **kwargs):
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn(*args, **kwargs)
    result.stage_s[key] = result.stage_s.get(key, 0.0) + time.perf_counter() - w0
    result.stage_cpu_s[key] = result.stage_cpu_s.get(key, 0.0) + time.process_time() - c0
    return out


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_dir(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode() + b"\0" + sha256_file(p).encode())
    return h.hexdigest()


def read_feature_rows(path: Path, addresses) -> dict[str, np.ndarray]:
    """Timeline matrices of ``addresses`` from a feature file, parsed here
    rather than by the program so the check does not trust its reader."""
    wanted = set(addresses)
    rows: dict[str, dict[int, list[float]]] = {a: {} for a in wanted}
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        fh.readline()
        for line in fh:
            address = line[:line.index(",")]
            if address in wanted:
                parts = line.rstrip("\n").split(",")
                rows[address][int(parts[1])] = [float(x) for x in parts[3:]]
    return {a: np.array([r[t] for t in sorted(r)]) for a, r in rows.items() if r}


def reference_check(store, config, feature_file: Path, sample, check: CheckResult) -> None:
    """Each sampled timeline must equal the from-scratch reference builder."""
    written = read_feature_rows(feature_file, sample)
    params = config.paths.params()
    for address in sample:
        try:
            ref = features.feature_timeline_rebuilt(store, address, config.hours, params)
        except Exception as exc:  # a raising address counts as failed, not fatal
            check.fail(1, f"reference build of {address} raised {exc!r}")
            continue
        got = written.get(address)
        if got is None or got.shape != ref.matrix.shape:
            check.fail(1, f"timeline of {address} is missing or has another shape")
        elif not np.array_equal(got, ref.matrix):
            diff = np.abs(got - ref.matrix)
            check.fail(1, f"timeline of {address} differs from feature_timeline_rebuilt "
                          f"in {int(np.count_nonzero(diff))} cells, max |diff| {diff.max():.3g}")


def _sample_by_group(groups: dict[str, list[str]], per_group: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    out = []
    for key in sorted(groups):
        members = sorted(groups[key])
        picks = rng.choice(len(members), size=min(per_group, len(members)), replace=False)
        out.extend(members[i] for i in sorted(picks))
    return out


class Workload:
    """Common flow: ``setup`` builds the universe in a directory, ``run_pass``
    times the workload's stages on it, ``check_pass`` verifies the outputs."""

    name = ""
    reference_seed = 0
    stages: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.config = pipeline.load_config(self.config_payload())
        self.dir: Path | None = None
        self.digests: dict[str, str] | None = None
        self.info: dict = {}

    def config_payload(self) -> dict:
        raise NotImplementedError

    def setup(self, out_dir: Path) -> None:
        pipeline.run_pipeline(self.config, out_dir, stages=("synth", "ingest"))

    def use(self, out_dir: Path) -> None:
        """Adopt a set-up directory for the timed passes."""
        self.dir = out_dir
        self.n_monitored = len(chain.load_labels(out_dir / "labels.csv"))

    def load_store(self):
        """The universe as the checks see it; parsed on demand and not kept, so
        the timed passes run without the benchmark's objects on the heap."""
        labels = chain.load_labels(self.dir / "labels.csv")
        return chain.parse_transactions_file(self.dir / "transactions.jsonl", labels)

    def run_pass(self) -> PassResult:
        result = PassResult()
        for stage in self.stages:
            _timed_call(result, stage, pipeline.run_pipeline, self.config, self.dir,
                        stages=(stage,))
        return result

    def artifact_digests(self) -> dict[str, str]:
        return {"features.csv": sha256_file(self.dir / "features" / "features.csv")}

    def reference_sample(self, store) -> list[str]:
        raise NotImplementedError

    def ops_per_pass(self) -> int:
        return self.n_monitored

    def check_pass(self, index: int, result: PassResult) -> CheckResult:
        check = CheckResult(attempted=self.ops_per_pass())
        digests = self.artifact_digests()
        if self.digests is None:
            self.digests = digests
            store = self.load_store()
            reference_check(store, self.config, self.dir / "features" / "features.csv",
                            self.reference_sample(store), check)
        elif digests != self.digests:
            check.fail(self.ops_per_pass(), f"pass {index} artifacts differ from pass 0")
        return check

    def features_rate(self, result: PassResult) -> float:
        return self.n_monitored * HOURS / result.stage_s["features"]

    def extra_metrics(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        return {}


def _scenario_groups(out_dir: Path) -> dict[str, list[str]]:
    meta = json.loads((out_dir / "scenario.json").read_text())["meta"]
    groups: dict[str, list[str]] = {}
    for address, info in meta.items():
        groups.setdefault(info["kind"], []).append(address)
    return groups


DEFAULT_SPECS = tuple((spec["kind"], spec["count"])
                      for spec in pipeline.ScenarioConfig().specs)


class PipelineDefault(Workload):
    """Every stage after ingest, then ``explain`` on holdout addresses."""

    name = "pipeline-default"
    reference_seed = 7
    stages = ("paths", "features", "select", "segment", "train", "predict", "eval")
    EXPLAIN_PER_KIND = 2
    F1E_MIN, F1C_MIN = 0.80, 0.75

    def config_payload(self) -> dict:
        payload = {"seed": self.seed}
        if self.tiny:
            payload.update(
                scenario={"specs": [{"kind": kind, "count": max(2, count // 4)}
                                    for kind, count in DEFAULT_SPECS]},
                selection={"runs_per_round": 2, "max_rounds": 2},
                catalogs={"k_status": 8, "k_action": 8},
                gbt={"n_rounds": 20},
                intention={"epochs": 20})
        return payload

    def use(self, out_dir: Path) -> None:
        super().use(out_dir)
        self.explain_list: list[str] | None = None

    def _pick_explain(self) -> list[str]:
        holdout = set(json.loads((self.dir / "split.json").read_text())["holdout"])
        groups = {kind: [a for a in members if a in holdout]
                  for kind, members in _scenario_groups(self.dir).items()}
        return [a for kind in sorted(groups)
                for a in sorted(groups[kind])[:self.EXPLAIN_PER_KIND]]

    def run_pass(self) -> PassResult:
        result = super().run_pass()
        if self.explain_list is None:
            self.explain_list = self._pick_explain()
        self.explain_texts = {}
        for address in self.explain_list:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                self.explain_texts[address] = pipeline.explain_address(
                    self.config, self.dir, address)
            except Exception as exc:  # one failed explain is one failed operation
                self.explain_texts[address] = exc
            result.explain_ms.append((time.perf_counter() - w0) * 1e3)
            result.stage_cpu_s["explain"] = (result.stage_cpu_s.get("explain", 0.0)
                                             + time.process_time() - c0)
        return result

    def artifact_digests(self) -> dict[str, str]:
        return {name: sha256_file(self.dir / rel) for name, rel in (
            ("features.csv", "features/features.csv"),
            ("predictions.csv", "predictions.csv"),
            ("intention_model.bin", "intention_model.bin"),
            ("eval_report.json", "eval_report.json"))}

    def reference_sample(self, store) -> list[str]:
        return _sample_by_group(_scenario_groups(self.dir), 1, self.seed)

    def ops_per_pass(self) -> int:
        # Every address is featurized and scored; each listed address explained.
        return 2 * self.n_monitored + len(self.explain_list or ())

    def check_pass(self, index: int, result: PassResult) -> CheckResult:
        check = super().check_pass(index, result)
        report = json.loads((self.dir / "eval_report.json").read_text())["all"]
        f1e, f1c = report["f1_early"], report["f1_consistency"]
        self.info["f1_early"], self.info["f1_consistency"] = f1e, f1c
        if not (f1e >= self.F1E_MIN and f1c >= self.F1C_MIN):
            check.fail(self.n_monitored, f"pass {index}: F1E={f1e} F1C={f1c} below "
                                         f"{self.F1E_MIN}/{self.F1C_MIN}")
        for address, text in self.explain_texts.items():
            if isinstance(text, Exception):
                check.fail(1, f"explain {address} raised {text!r}")
            elif not (text.startswith(f"address: {address}\n") and "survival trace:" in text):
                check.fail(1, f"explain {address} returned an unexpected report")
        return check

    def extra_metrics(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        samples = [ms for p in passes for ms in p.explain_ms]
        tail, pct, n = tail_percentile(samples)
        self.info["explain_tail"] = {"percentile": pct, "samples": n}
        return {
            "train_s": (float(np.median([p.stage_s["train"] for p in passes])), "s"),
            "predict_addr_per_s": (float(np.median(
                [self.n_monitored / p.stage_s["predict"] for p in passes])), "1/s"),
            "explain_p50_ms": (float(np.median(samples)), "ms"),
            "explain_tail_ms": (tail, "ms"),
        }


FEATURIZE_1K_SPECS = (("hack", 30), ("ransomware", 30), ("darknet", 40),
                      ("exchange", 350), ("merchant", 250), ("gambling", 200),
                      ("mining", 100))


class Featurize1k(Workload):
    """The criterion-10 universe; the ``features`` stage only."""

    name = "featurize-1k"
    reference_seed = 77
    stages = ("features",)

    def config_payload(self) -> dict:
        scale = 20 if self.tiny else 1
        specs = [{"kind": kind, "count": max(1, count // scale)}
                 for kind, count in FEATURIZE_1K_SPECS]
        return {"seed": self.seed, "scenario": {"specs": specs, "noise_level": 0.3}}

    def reference_sample(self, store) -> list[str]:
        return _sample_by_group(_scenario_groups(self.dir), 1, self.seed)


class TraceDeep(Workload):
    """Few anchors, deep paths: the ``paths`` then ``features`` stages on the
    benchmark's own universe (:mod:`deepgen`).

    Not in ``BENCHMARK.json`` yet: with two peel chains out of each address,
    the program's timelines differ from ``feature_timeline_rebuilt`` in the
    last bits of some forward-set aggregates, so this workload's reference
    check fails and the run exits with status 1 until that is fixed."""

    name = "trace-deep"
    reference_seed = 2309
    stages = ("paths", "features")
    # Low enough that the widest mixer trees hit the cap and get pruned.
    MAX_PATHS_PER_SET = 32

    def config_payload(self) -> dict:
        return {"seed": self.seed, "paths": {"max_paths_per_set": self.MAX_PATHS_PER_SET}}

    def setup(self, out_dir: Path) -> None:
        records, labels, meta = deepgen.generate(self.seed, 8 if self.tiny else 100)
        synth.write_universe(out_dir, records, labels, meta,
                             {"generator": "perfbench.deepgen", "seed": self.seed})
        pipeline.run_pipeline(self.config, out_dir, stages=("ingest",))
        rejected = json.loads((out_dir / "ingest_report.json").read_text())["rejected_lines"]
        if rejected:
            raise RuntimeError(f"generated universe has {rejected} rejected lines")

    def use(self, out_dir: Path) -> None:
        super().use(out_dir)
        self.info["shape"] = self.shape()

    def shape(self) -> dict:
        """Paths per set and anchor at the end of each address's window."""
        store, params = self.load_store(), self.config.paths.params()
        per_set: dict[str, list[int]] = {name: [] for name in paths.SET_NAMES}
        truncated = {name: 0 for name in paths.SET_NAMES}
        for address in store.labels:
            recv = store.receive_txs(address)
            spend = store.spend_txs(address)
            t_now = min(store.tx(t).timestamp for t in recv + spend) + HOURS * 3600
            for horizon in paths.HORIZONS:
                for anchor in recv:
                    if store.tx(anchor).timestamp <= t_now:
                        ps = paths.backward_paths(store, anchor, params.config(horizon, "BK"))
                        per_set[f"{horizon.lower()}_bk"].append(len(ps))
                        truncated[f"{horizon.lower()}_bk"] += ps.truncated
                for anchor in spend:
                    if store.tx(anchor).timestamp <= t_now:
                        ps = paths.forward_paths(store, anchor, params.config(horizon, "FR"),
                                                 t_now)
                        per_set[f"{horizon.lower()}_fr"].append(len(ps))
                        truncated[f"{horizon.lower()}_fr"] += ps.truncated
        return {
            "transactions": len(store),
            "max_paths_per_set": params.max_paths_per_set,
            "paths_per_anchor": {
                name: {"anchors": len(v), "mean": round(float(np.mean(v)), 2) if v else 0.0,
                       "max": max(v, default=0), "truncated": truncated[name]}
                for name, v in per_set.items()},
        }

    def artifact_digests(self) -> dict[str, str]:
        return {**super().artifact_digests(), "paths/": sha256_dir(self.dir / "paths")}

    def reference_sample(self, store) -> list[str]:
        groups: dict[str, list[str]] = {}
        for address, label in store.labels.items():
            groups.setdefault(str(label), []).append(address)
        return _sample_by_group(groups, 2, self.seed)


WORKLOADS = {w.name: w for w in (PipelineDefault, Featurize1k, TraceDeep)}
