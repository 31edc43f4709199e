"""ncdkit benchmark: one workload, one process, one training call at a time.

    python3 perfbench/run.py --workload discovery-b64 --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; ncdkit is imported from its `src/`.
The workload seed makes the dataset (and the RunConfig seed), the program
gets only that dataset and a RunConfig, and every output is checked by
`oracles.py`. The last line of standard output is one JSON object:
`correct`, `attempted` and `failed` operations (training steps plus output
checks), and the metrics: the end-to-end ones with `--trace 0`, the
per-layer split of one extra traced call with `--trace 1`. See README.md.
"""

import os
import sys

# BLAS may start no more threads than this (the machine has 2 cores); numpy
# reads these when it is first imported, so they are set before any import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench_results"
# Set-up is timed in rounds of at least this many seconds: one before the
# first call and one after every call. Each round yields its mean time per
# set-up, and setup_s is the median over the rounds. On a shared 2-vCPU VM
# the speed switches between a fast and a slow state about every second
# (single set-ups take 0.07 or 0.12 s on the 1000-record data), so a median over
# single set-ups jumps between the two, while round means spread over the
# run follow the share of slow time, as the calls' times do.
SETUP_ROUND_S = 1.5
SETUP_PARTS = ("setup_s", "data.generate_s", "data.write_csv_s", "data.read_csv_s")


@dataclass(frozen=True)
class Workload:
    gen: dict                     # generate_synthetic arguments except rng
    config: dict = field(default_factory=dict)   # RunConfig fields besides the defaults
    call: str = "train"           # trainer function that is timed
    acc_floor: float | None = None


SINGLE = dict(classes_labelled=6, classes_unlabelled=4, per_class=100, d_v=16, d_a=None,
              class_sep=10.0, intra_sigma=1.0, modality_corr=0.5)

# why each workload is there: BENCHMARK.json and README.md; the epoch counts
# of the last two keep four calls inside a 33-second run
WORKLOADS = {
    "discovery-b64": Workload(gen=SINGLE, acc_floor=0.4),
    "xmodal-b512": Workload(
        gen=dict(SINGLE, per_class=400, d_a=16),
        config=dict(multimodal=True, selector_g0="visual", selector_g1="audio",
                    batch_size=512, epochs=2)),
    "kmeans-baseline": Workload(
        gen=SINGLE, config=dict(pretrain_epochs=22), call="kmeans_baseline"),
}


def import_ncdkit():
    """ncdkit from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "ncdkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ncdkit sources under {src}")
    sys.path.insert(0, str(src))
    import ncdkit
    if Path(ncdkit.__file__).resolve().parent != (src / "ncdkit").resolve():
        raise SystemExit(f"perfbench: imported ncdkit from {ncdkit.__file__}, not {src}")
    return ncdkit


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, name: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]


def setup_round(nk, wl: Workload, seed: int, csv_path: Path, parts: dict):
    """Generate the dataset, write it as CSV, build the RunConfig from JSON and
    read the dataset back the way `ncdkit train` does, repeated for at least
    SETUP_ROUND_S. Appends the mean time of each part to `parts`; returns the
    config and the generated and the read dataset."""
    payload = dict(wl.config, seed=seed, data_path=str(csv_path))
    sums = dict.fromkeys(SETUP_PARTS, 0.0)
    repeats = 0
    gc.collect()
    start = perf_counter()
    while perf_counter() - start < SETUP_ROUND_S:
        t0 = perf_counter()
        ds = nk.generate_synthetic(**wl.gen, rng=nk.RngState(seed))
        t1 = perf_counter()
        nk.write_dataset(ds, csv_path)
        t2 = perf_counter()
        cfg = nk.RunConfig.from_json(json.dumps(payload))
        t3 = perf_counter()
        ds_read = nk.read_dataset(cfg.data_path)
        t4 = perf_counter()
        for key, value in zip(SETUP_PARTS, (t4 - t0, t1 - t0, t2 - t1, t4 - t3)):
            sums[key] += value
        repeats += 1
    for key, total in sums.items():
        parts[key].append(total / repeats)
    return cfg, ds, ds_read


def records(ds) -> list[tuple]:
    """(id, split, label, features) of every record of a Dataset."""
    return [(r.rid, r.split, r.label,
             r.x_v.tolist() + ([] if r.x_a is None else r.x_a.tolist())) for r in ds.records]


def check_inputs(wl, ds_made, ds_read, csv_path, ledger):
    """CSV layout and bit-exact round trip: what generate_synthetic made must
    be what the file holds and what read_dataset returned. Returns the
    benchmark's own copy of the ground truth: record id -> class, and the
    unlabelled classes in file order."""
    header, rows = oracles.parse_csv(csv_path)
    ledger.check("csv layout", oracles.check_layout(header, rows, wl.gen))
    made = records(ds_made)
    ledger.check("csv file", oracles.compare_records(made, oracles.typed_rows(rows), "file"))
    ledger.check("csv read", oracles.compare_records(made, records(ds_read), "read_dataset"))
    cl = wl.gen["classes_labelled"]
    truth = {int(r[0]): int(r[2]) for r in rows}
    y_true = [int(r[2]) - cl for r in rows if r[1] == "unlabelled"]
    return truth, y_true


def timed_call(nk, wl, cfg, ds):
    """The workload's timed call; returns (start, end, final ACC)."""
    start = perf_counter()
    if wl.call == "train":
        _, history = nk.trainer.train(cfg, ds)
        acc = history[-1].acc
    else:
        acc = nk.trainer.kmeans_baseline(cfg, ds)
    return start, perf_counter(), acc


def cut_call(marks, start, end) -> dict[str, list[float]]:
    """Cut one call at every drawn batch into pieces, in seconds, by kind:
    "head" up to the first batch, "step" from one batch to the next, "epoch"
    where an epoch's evaluation ended in between, and "tail" from the last
    batch to the end of the call. The pieces add up to the call's wall time."""
    pieces = defaultdict(list)
    last, kind = start, "head"
    for what, t in marks:
        if what == "eval":
            kind = "epoch"
            continue
        pieces[kind].append(t - last)
        last, kind = t, "step"
    pieces["tail"].append(end - last)
    return pieces


def call_seconds(calls: list[dict]) -> float:
    """A call's wall time with every kind of piece at its 80th percentile over
    `calls`: the sum over kinds of pieces per call times that piece.

    The machine's fast spells hold from a tenth to about half of a run; the
    80th percentile stays in the slow state, which holds most of the time,
    where the median and the plain time follow the share of fast time.
    """
    return sum(len(values) / len(calls) * np.percentile(values, 80)
               for values in ([x for c in calls for x in c[kind]] for kind in calls[0]))


def check_round(wl, probe, acc, y_true, n_clusters, ledger):
    ledger.check("finite losses", oracles.check_finite_losses(probe.histories))
    if probe.acc_args is None:
        ledger.check("acc", ["clustering_acc was never called"])
        return
    _, y_pred, _ = probe.acc_args
    ledger.check("acc", oracles.check_acc(acc, y_true, y_pred, n_clusters))
    if wl.acc_floor is not None:
        ledger.check("acc floor", oracles.check_floor(acc, wl.acc_floor))
    if wl.call == "kmeans_baseline":
        if probe.kmeans_io is None:
            ledger.check("lloyd", ["kmeans was never called"])
            return
        X, k, labels = probe.kmeans_io
        same = [] if list(labels) == list(y_pred) else ["scored assignment is not the k-means one"]
        ledger.check("lloyd", same + oracles.check_lloyd_fixed_point(X, labels, k))


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    nk = import_ncdkit()

    ledger = Ledger()
    for name, problems in oracles.self_test():
        ledger.check(f"self-test {name}", problems)

    RESULTS.mkdir(exist_ok=True)
    parts = {key: [] for key in SETUP_PARTS}
    with tempfile.TemporaryDirectory(dir=RESULTS) as work:
        csv_path = Path(work) / "dataset.csv"
        cfg, ds_made, ds = setup_round(nk, wl, args.seed, csv_path, parts)
        truth, y_true = check_inputs(wl, ds_made, ds, csv_path, ledger)
        n_clusters = cfg.classes_unlabelled

        # closed loop: whole calls, one after another, as many as fit into the
        # run's seconds of call time judged by the last call's length, and at
        # least one; a set-up round follows each call
        times, accs, pieces = [], [], []
        while True:
            # every call starts from a collected heap, as in a fresh process, so
            # the peak RSS does not depend on how many calls fit into the run
            gc.collect()
            with tracing.Probe(nk, timed=False, truth=truth) as probe:
                start, end, acc = timed_call(nk, wl, cfg, ds)
            seconds = end - start
            pieces.append(cut_call(probe.marks, start, end))
            ledger.attempted += probe.counts["data.batches"]
            times.append(seconds)
            views = probe.counts["data.views"]      # the same in every call
            accs.append(acc)
            check_round(wl, probe, acc, y_true, n_clusters, ledger)
            if len(accs) > 1:
                ledger.check("deterministic",
                             [] if acc == accs[0] else [f"ACC {acc} after {accs[0]}"])
            setup_round(nk, wl, args.seed, csv_path, parts)
            if sum(times) + seconds > args.seconds:
                break
    # the first call also grows the heap (page faults); other calls are warm
    run_s = call_seconds(pieces[1:] or pieces)
    setup_parts = {key: statistics.median(values) for key, values in parts.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not args.trace:
        metrics = {
            "setup_s": (setup_parts["setup_s"], "s"),
            "run_s": (run_s, "s"),
            "views_per_s": (views / run_s, "views/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        spans = []
    else:
        gc.collect()
        with tracing.Probe(nk, timed=True, truth=truth) as probe:
            start, end, acc = timed_call(nk, wl, cfg, ds)
        traced_s = end - start
        ledger.attempted += probe.counts["data.batches"]
        check_round(wl, probe, acc, y_true, n_clusters, ledger)
        ledger.check("traced deterministic", [] if acc == accs[0] else [f"ACC {acc}"])
        unmatched = probe.counts["pairing.unmatched_calls"]
        ledger.check("pair rows", [f"{unmatched} pairwise_labels calls did not label the "
                                   "batch's unlabelled rows"] if unmatched else [])
        for Z, s, strategy in probe.pair_samples:
            h = strategy.hasher
            ledger.check("wta pairs", oracles.check_pair_labels(s, Z, h.perms, h.window,
                                                                 h.threshold))
        metrics = {key: (value, "s") for key, value in setup_parts.items() if key != "setup_s"}
        metrics.update(probe.layer_metrics(traced_s))
        metrics["final_acc"] = (acc, "fraction")
        metrics["trace.run_s"] = (traced_s, "s")
        # both sides rebuilt from their pieces, so a fast spell in the one
        # traced call does not read as a saving
        metrics["trace_overhead_s"] = (
            call_seconds([cut_call(probe.marks, start, end)]) - run_s, "s")
        spans = probe.spans

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  calls=len(times), call_s=times, pieces=pieces, setup_rounds=parts["setup_s"],
                  final_acc=accs[0], problems=ledger.problems, spans=spans)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed {args.seed}: {len(times)} calls, final ACC {accs[0]}, "
          f"BLAS threads {BLAS_THREADS}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
