"""One fresh-process measurement of a workload's set-up, printed as JSON.

    python3 perfbench/setup_probe.py <checkout root> <workload> <seed> [<scenario.ini>]

Set-up is what a user pays before the first run starts: importing the
package, loading the scenario and expanding it into run configs, and for a
``--jobs`` workload starting the worker pool.  A CLI workload loads its
scenario from the INI file the benchmark wrote, as ``smarton-sim sweep``
does.  The speed probe runs just before and just after, so the times can be
scaled to nominal speed like every other time (see speed.py).
"""

import json
import sys
from time import perf_counter


def main(argv):
    root, name, seed = argv[0], argv[1], int(argv[2])
    ini = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, f"{root}/src")
    from speed import probe, relative_speed
    from workloads import WORKLOADS, build_scenario

    workload = WORKLOADS[name]
    probes = [probe() for _ in range(10)]
    t0 = perf_counter()
    import smarton_sim.cli  # noqa: F401  (imports every layer)
    from smarton_sim import scenario as sc

    t1 = perf_counter()
    if ini is not None:
        scenario = sc.load_scenario(ini)
    else:
        scenario = build_scenario(sc.load_scenario, workload, seed)
    t2 = perf_counter()
    if scenario.study is None:
        configs = len(sc.expand_sweep(scenario))
    else:
        # a study sweep builds one config and reseeds it per run
        sc.build_sim_config(scenario)
        configs = len(scenario.values[("sweep", "seeds")].split(","))
    t3 = perf_counter()
    pool_s = 0.0
    if workload.jobs > 1:
        import multiprocessing

        pool = multiprocessing.Pool(workload.jobs)
        pool.map(abs, range(workload.jobs), chunksize=1)
        pool_s = perf_counter() - t3
        pool.close()
        pool.join()
    probes += [probe() for _ in range(10)]
    print(json.dumps({
        "import_s": t1 - t0,
        "load_s": t2 - t1,
        "expand_s": t3 - t2,
        "pool_s": pool_s,
        "configs": configs,
        "speed": relative_speed(probes),
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
