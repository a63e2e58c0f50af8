"""The E1-E11 tables at their claim sizes, each built once per session.

The claim checks in ``test_eN.py`` and the table-structure checks in
``test_experiment_smoke.py`` read the same runs, so each experiment runs
at one size in the suite.  The seeds, steps and sizes are the ones the
claim checks' thresholds were set against.
"""

from functools import cache

from repro.experiments import (e1_levels, e2_camera, e3_cloud, e4_volunteer,
                               e5_multicore, e6_cpn, e7_attention, e8_meta,
                               e9_collective, e10_priors, e11_explain)

#: E7's energy budgets and E9's network sizes; their claim checks
#: iterate over them too.
E7_BUDGETS = (2.0, 4.0, 8.0)
E9_SIZES = (10, 50)


@cache
def e1():
    return e1_levels.run(seeds=(0, 1), steps=1500)


@cache
def e2():
    return e2_camera.run(seeds=(0, 1), steps=500)


@cache
def e3():
    return e3_cloud.run(seeds=(0, 1), steps=500)


@cache
def e3_goal_change():
    return e3_cloud.run_goal_change(seeds=(0, 1), steps=500)


@cache
def e4():
    return e4_volunteer.run(seeds=(0, 1, 2), steps=2000)


@cache
def e5():
    return e5_multicore.run(seeds=(0, 1), steps=800)


@cache
def e5_goal_change():
    return e5_multicore.run_goal_change(seeds=(0,), steps=600)


@cache
def e6():
    return e6_cpn.run(seeds=(0, 1), steps=500)


@cache
def e7():
    return e7_attention.run(seeds=(0, 1, 2), budgets=E7_BUDGETS, steps=400)


@cache
def e8():
    return e8_meta.run(seeds=(0, 1, 2), steps=3000)


@cache
def e9():
    return e9_collective.run(seeds=(0, 1), sizes=E9_SIZES)


@cache
def e10():
    return e10_priors.run(seeds=(0, 1, 2), steps=600)


@cache
def e11():
    return e11_explain.run(seeds=(0, 1), steps=500)
