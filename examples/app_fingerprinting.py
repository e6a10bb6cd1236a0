#!/usr/bin/env python3
"""Application fingerprinting with the classifier plugin (Fig 1 taxonomy).

"Application fingerprinting: optimizing management decisions by
predicting the behavior of user jobs" is one of the six ODA use-case
classes the paper identifies.  This example implements it with the
bundled ``classifier`` operator:

- during a labelled phase, the scheduler publishes the running app's id
  as an ordinary sensor (``app-id``) while different applications run;
- the classifier extracts window statistics from the node's performance
  counters and trains a random forest on the labelled windows;
- afterwards the label sensor goes silent (set out of range) and the
  operator identifies which application is running purely from the
  counter signature — printed against the hidden ground truth.

Run:  python examples/app_fingerprinting.py      (~1 minute)
"""

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.core import OperatorManager
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.plugins import PerfeventPlugin
from repro.dcdb.sensor import Sensor, SensorColumns
from repro.simulator import ClusterSimulator, ClusterSpec
from repro.simulator.clock import TaskScheduler
from repro.simulator.scheduler import Job

APPS = ["lammps", "amg", "kripke"]
SLOT_S = 60
TRAIN_ROUNDS = 2


def main() -> None:
    sim = ClusterSimulator(ClusterSpec.small(nodes=1, cpus=8), seed=12)
    scheduler = TaskScheduler()
    broker = Broker()
    node = sim.node_paths[0]

    pusher = Pusher(node, broker, scheduler)
    pusher.add_plugin(
        PerfeventPlugin(sim, node, counters=("cpu-cycles", "instructions",
                                             "cache-misses"))
    )
    agent = CollectAgent("agent", broker, scheduler)

    # The label channel: the "scheduler" publishes the current app id.
    label_sensor = Sensor(f"{node}/app-id", unit="#")

    def publish_label(ts):
        job = sim.scheduler.job_on_node(node, ts)
        label = APPS.index(job.app_name) if job else -1  # -1 = unlabelled
        pusher.store_readings_batch(
            ts, SensorColumns((label_sensor,), (float(label),))
        )

    scheduler.add_callback("labels", publish_label, NS_PER_SEC)

    # Schedule the labelled training rounds, then an unlabelled quiz.
    t = 1
    schedule = []
    for round_idx in range(TRAIN_ROUNDS):
        for app in APPS:
            sim.scheduler.add_job(
                Job(f"train-{app}-{round_idx}", app, (node,),
                    t * NS_PER_SEC, (t + SLOT_S) * NS_PER_SEC)
            )
            t += SLOT_S
    quiz_order = ["kripke", "lammps", "amg"]
    quiz_start = t
    for app in quiz_order:
        sim.scheduler.add_job(
            Job(f"quiz-{app}", app, (node,), t * NS_PER_SEC,
                (t + SLOT_S) * NS_PER_SEC)
        )
        schedule.append((t, t + SLOT_S, app))
        t += SLOT_S

    manager = OperatorManager()
    pusher.attach_analytics(manager)
    # Let the first samples (incl. the app-id label sensor) appear so
    # the classifier's pattern unit can resolve.
    scheduler.run_until(2 * NS_PER_SEC)
    manager.load_plugin(
        {
            "plugin": "classifier",
            "operators": {
                "app-id": {
                    "interval_s": 1,
                    "window_s": 8,
                    "delay_s": 9,
                    "inputs": [
                        "<bottomup, filter cpu0[0-3]>cpu-cycles",
                        "<bottomup, filter cpu0[0-3]>instructions",
                        "<bottomup, filter cpu0[0-3]>cache-misses",
                        "<bottomup-1>app-id",
                    ],
                    "outputs": ["<bottomup-1>predicted-app"],
                    "params": {
                        "label": "app-id",
                        "n_classes": len(APPS),
                        "training_samples": TRAIN_ROUNDS * len(APPS) * SLOT_S - 40,
                        "delta_inputs": [
                            "cpu-cycles", "instructions", "cache-misses",
                        ],
                        "seed": 2,
                    },
                }
            },
        }
    )

    # Training phase: labels available.
    scheduler.run_until(quiz_start * NS_PER_SEC)
    op = manager.operator("app-id")
    print(f"training: model trained = {op._shared_model.trained} "
          f"({TRAIN_ROUNDS} rounds x {APPS})")

    # Quiz phase: the label publisher now emits -1 (out of range), so
    # the classifier gets no new ground truth.
    scheduler.run_until(t * NS_PER_SEC)
    agent.flush()

    ts_arr, preds = agent.storage.query(f"{node}/predicted-app", 0, 2**62)
    ts_s = np.asarray(ts_arr) / NS_PER_SEC
    print("\nquiz phase (labels hidden):")
    print("window           truth      predicted   accuracy")
    correct_total = 0
    count_total = 0
    for start, end, app in schedule:
        mask = (ts_s >= start + 10) & (ts_s < end)  # skip mixed windows
        votes = np.asarray(preds)[mask].astype(int)
        if votes.size == 0:
            continue
        majority = np.bincount(votes, minlength=len(APPS)).argmax()
        acc = float((votes == APPS.index(app)).mean())
        correct_total += int((votes == APPS.index(app)).sum())
        count_total += votes.size
        print(
            f"{start:4d}-{end:4d}s   {app:10s} {APPS[majority]:10s}"
            f"   {acc * 100:6.1f}%"
        )
    print(f"\noverall window accuracy: "
          f"{correct_total / max(1, count_total) * 100:.1f}%")


if __name__ == "__main__":
    main()
