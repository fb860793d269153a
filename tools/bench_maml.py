"""Record first-order MAML's and one online SGD phase's time on the
benchmark workloads as ``BENCH_<label>.json``.

    python3 tools/bench_maml.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout, named after its commit (see
``tools/bench_pairs.py``, whose ``compare_layer`` runs this script).  The
worker, run in each checkout ``ROUNDS`` times, loads each of the
``CONFIGS`` of ``tools/bench_search.py`` with
``trainer.prepare_run(cfg, SEED)`` and calls ``trainer.meta_initialize``
from the run's initial parameters, ``setup.initial_params()``, with
``trainer.maml_outer`` replaced by a stub that keeps its arguments and
returns the parameters it was given, so the meta tasks and MAML settings
are exactly the ones a run with seed ``SEED`` uses.  It then times
``PASSES`` calls of ``transfer.maml_outer`` on them from those parameters,
and ``PASSES`` times ``SGD_PHASES`` calls of ``trainer._train_on`` from
MAML's result on a fixed batch: the first ``k_replay`` rows of the meta
tasks, each a (features, labels) pair, in task order, with the config's
minibatch, learning rate and passes.  Raw times are CPU time
(``time.process_time``), and ``scaled`` ones wall time at the reference
machine speed (``bench_pairs.SPEED_SAMPLER``).  It prints the times and a
SHA-256 digest of each result's bytes, layer by layer.  The record holds per workload and timed
call the ``bench_pairs.summarize`` fields, and whether both checkouts
returned equal parameters in every pass of every round; the script exits
non-zero, after writing it, if any parameters differ.
"""

from bench_pairs import SPEED_SAMPLER, compare_layer, raw_and_scaled, same
from bench_search import CONFIGS

SEED = 1
PASSES = 3
SGD_PHASES = 20
ROUNDS = 10
TIMED = ("maml_outer", "train_on")

# Run in each checkout: one JSON object mapping each workload to the ms of
# each timed call per pass, raw and scaled, and the digests of every pass's
# results.
WORKER = SPEED_SAMPLER + """
import hashlib, json, sys, time
import numpy as np
from joinopt import trainer
from joinopt.transfer import maml_outer

configs, seed, passes, phases = json.loads(sys.argv[1])


def digest(params):
    h = hashlib.sha256()
    for w, b in zip(params.weights, params.biases):
        h.update(w.tobytes())
        h.update(b.tobytes())
    return h.hexdigest()


out = {}
for name, path in configs.items():
    cfg = trainer.load_run_config(path)
    setup = trainer.prepare_run(cfg, seed)
    params = setup.initial_params()
    calls = []
    trainer.maml_outer = lambda params, *args, **kwargs: calls.append((args, kwargs)) or params
    trainer.meta_initialize(cfg, setup.train, params, seed)
    trainer.maml_outer = maml_outer
    (args, kwargs), = calls
    rows = slice(0, cfg.retention.k_replay)
    features = np.concatenate([f for f, _ in args[0]])[rows]
    labels = np.concatenate([y for _, y in args[0]])[rows]
    batch = (features, labels)
    cpu = {"maml_outer": [], "train_on": []}
    wall = {"maml_outer": [], "train_on": []}
    digests = []

    def clocks():
        return time.process_time(), time.perf_counter()

    for _ in range(passes):
        cpu_0, wall_0 = clocks()
        meta = maml_outer(params, *args, **kwargs)
        cpu_1, wall_1 = clocks()
        for _ in range(phases):
            trained = trainer._train_on(
                meta, batch, cfg.model.minibatch, cfg.model.learning_rate,
                cfg.model.train_passes,
            )
        cpu_2, wall_2 = clocks()
        cpu["maml_outer"].append((cpu_1 - cpu_0) * 1e3)
        cpu["train_on"].append((cpu_2 - cpu_1) * 1e3 / phases)
        wall["maml_outer"].append((wall_0, wall_1, 1))
        wall["train_on"].append((wall_1, wall_2, phases))
        digests.append([digest(meta), digest(trained)])
    out[name] = {"rows": len(labels), "digests": digests}
    for k in cpu:  # CPU times, scaled from the wall times
        out[name][k] = timed(wall[k])
        out[name][k]["raw"] = cpu[k]
finish(out)
"""


def record(rounds: list[dict]) -> dict:
    """The record's fields from every round's worker output."""
    workloads = {
        name: {
            "sgd_rows": rounds[0]["before"][name]["rows"],
            **{item: raw_and_scaled(rounds, lambda result: result[name][item]) for item in TIMED},
            "params_equal": same(rounds, lambda result: result[name]["digests"]),
        }
        for name in CONFIGS
    }
    return {
        "command": "transfer.maml_outer on the meta tasks meta_initialize builds, "
        "and trainer._train_on on their first k_replay rows, CPU time per call "
        "(scaled: wall time at the reference speed)",
        "seed": SEED,
        "passes": PASSES,
        "sgd_phases_per_pass": SGD_PHASES,
        "params_equal": all(entry["params_equal"] for entry in workloads.values()),
        "workloads": workloads,
    }


if __name__ == "__main__":
    compare_layer(
        __doc__, WORKER, [CONFIGS, SEED, PASSES, SGD_PHASES], ROUNDS, record, "params_equal"
    )
